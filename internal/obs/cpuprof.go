package obs

import (
	"os"
	"runtime/pprof"
)

// StartCPUProfile starts a Go CPU profile of the host process written to
// path, the -cpuprofile flag of every CLI, and returns the function that
// stops the profile and closes the file. An empty path profiles nothing
// and returns a stop that does nothing.
func StartCPUProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}
