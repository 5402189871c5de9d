package mcheck

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/vmach/kernel"
)

// TestClassifyKernelErrors pins the one kernel-error classifier every
// pausable model's verdict goes through: each sentinel maps to its
// violation kind, the message is the error itself, and an SMP stepper's
// CPU index prefixes it.
func TestClassifyKernelErrors(t *testing.T) {
	crash := []Decision{{At: 3, Act: ActCrash}}
	livelock := &kernel.LivelockError{Thread: 1, SeqPC: 0x40, Restarts: 9}
	for _, tc := range []struct {
		name string
		ds   []Decision
		err  error
		kind string // "" when no violation is recorded
	}{
		{"none", nil, nil, ""},
		{"deadlock", nil, kernel.ErrDeadlock, "deadlock"},
		{"livelock", nil, livelock, "restart-livelock"},
		{"budget", nil, kernel.ErrBudget, "budget"},
		{"crash-unforced", nil, fmt.Errorf("%w at step 3", kernel.ErrMachineCrash), "crash"},
		{"crash-forced", crash, fmt.Errorf("%w at step 3", kernel.ErrMachineCrash), ""},
		{"other", nil, errors.New("kernel: bad instruction"), "abort"},
		{"other-with-crash", crash, errors.New("kernel: bad instruction"), "abort"},
	} {
		for _, cpu := range []int{-1, 0, 3} {
			in := &instance{ds: tc.ds, vio: &violations{}}
			in.classify(cpu, tc.err)
			got := in.Violations()
			if tc.kind == "" {
				if len(got) != 0 {
					t.Errorf("%s cpu=%d: recorded %v, want nothing", tc.name, cpu, got)
				}
				continue
			}
			want := Violation{Kind: tc.kind, Msg: tc.err.Error()}
			if cpu >= 0 {
				want.Msg = fmt.Sprintf("cpu%d: %v", cpu, tc.err)
			}
			if len(got) != 1 || got[0] != want {
				t.Errorf("%s cpu=%d: recorded %v, want [%v]", tc.name, cpu, got, want)
			}
		}
	}
}
