package obs

import (
	"errors"
	"os"
	"runtime"
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

// StartMemProfile opens path for a Go heap profile of the host process,
// the -memprofile flag of every CLI, and returns the function that
// writes the profile and closes the file: every allocation since the
// process started (go tool pprof -sample_index=alloc_space) and what is
// still live. An empty path profiles nothing and returns a stop that does
// nothing. The file is created here, so an unwritable path fails before
// the run.
func StartMemProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return func() error {
		runtime.GC() // bring the live-heap figures up to date
		err := pprof.Lookup("allocs").WriteTo(f, 0)
		return errors.Join(err, f.Close())
	}, nil
}

// StartProfiles starts the CPU and heap profiles a CLI's -cpuprofile and
// -memprofile flags name, either or both empty, and returns the function
// that stops both.
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	stopCPU, err := StartCPUProfile(cpuPath)
	if err != nil {
		return nil, err
	}
	stopMem, err := StartMemProfile(memPath)
	if err != nil {
		stopCPU()
		return nil, err
	}
	return func() error { return errors.Join(stopCPU(), stopMem()) }, nil
}
