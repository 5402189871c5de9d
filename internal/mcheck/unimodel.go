package mcheck

import (
	"errors"
	"fmt"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/uniproc"
)

// uniproc-backed models. The runtime layer runs whole schedules — its
// scheduler cannot pause between green-thread steps from outside — so
// these models are replay-only: no mid-run pause, no state hashing, and
// the exhaustive explorer enumerates the (small) decision spaces without
// pruning. The ordinal space is PointMemOp: guest Load/Store operations.

type uniModel struct {
	modelID
	run func(ds []Decision, opt Options, vio *violations) (cursor uint64)
}

func (m *uniModel) Pausable() bool { return false }
func (m *uniModel) New(ds []Decision, opt Options) (Instance, error) {
	return &uniInstance{m: m, ds: ds, opt: opt, vio: &violations{}}, nil
}

type uniInstance struct {
	m      *uniModel
	ds     []Decision
	opt    Options
	vio    *violations
	done   bool
	cursor uint64
}

func (in *uniInstance) RunTo(at uint64) bool { in.RunToEnd(); return true }
func (in *uniInstance) RunToEnd() {
	if in.done {
		return
	}
	in.done = true
	in.cursor = in.m.run(in.ds, in.opt, in.vio)
}
func (in *uniInstance) Fork(Decision) Instance {
	panic("mcheck: " + in.m.name + " is not pausable and cannot fork")
}
func (in *uniInstance) Cursor() uint64              { return in.cursor }
func (in *uniInstance) Violations() []Violation     { return in.vio.list }
func (in *uniInstance) StateHash() ([32]byte, bool) { return [32]byte{}, false }

// classifyUniErr folds the processor's terminal error into the taxonomy.
func classifyUniErr(err error, vio *violations) {
	switch {
	case err == nil:
	case errors.Is(err, uniproc.ErrDeadlock):
		vio.add("deadlock", "%v", err)
	case errors.Is(err, uniproc.ErrLivelock):
		vio.add("restart-livelock", "%v", err)
	case errors.Is(err, uniproc.ErrBudget):
		vio.add("budget", "%v", err)
	default:
		vio.add("abort", "%v", err)
	}
}

// uniCounterModel is the runtime-layer counter: workers increment a
// shared word either inside a restartable sequence (sync=ras, always
// exact) or bare (sync=none, loses updates under a preemption between
// the load and the store — the violation the checker must find).
func uniCounterModel(p map[string]string) (Model, error) {
	workers, iters, err := workerIters(p)
	if err != nil {
		return nil, err
	}
	sync := p["sync"]
	if sync != "ras" && sync != "none" {
		return nil, fmt.Errorf("mcheck: uni-counter: unknown sync %q", sync)
	}
	m := &uniModel{modelID: modelID{"uni-counter", p, ActPreempt}}
	m.run = func(ds []Decision, opt Options, vio *violations) uint64 {
		proc := uniproc.New(uniproc.Config{
			Quantum:   1 << 40,
			MaxCycles: modelBudget,
			Faults:    newInjector(chaos.PointMemOp, ds),
		})
		proc.Tracer = opt.Tracer
		var counter core.Word
		for w := 0; w < workers; w++ {
			proc.Go("worker", func(e *uniproc.Env) {
				for it := 0; it < iters; it++ {
					if sync == "ras" {
						e.Restartable(func() {
							v := e.Load(&counter)
							e.Commit(&counter, v+1)
						})
					} else {
						v := e.Load(&counter)
						e.ChargeALU(1)
						e.Store(&counter, v+1)
					}
				}
			})
		}
		classifyUniErr(proc.Run(), vio)
		want := core.Word(workers * iters)
		kills := hasAct(ds, ActKill)
		switch {
		case !kills && counter != want:
			vio.add("counter-exact", "counter = %d, want %d", counter, want)
		case kills && counter > want:
			vio.add("counter-exact", "counter = %d exceeds %d with kills", counter, want)
		}
		return proc.MemOps()
	}
	return m, nil
}

// uniRMEModel is core.RecoverableMutex under forced kills — the
// recoverable-mutual-exclusion model: a kill inside the critical section
// must be repaired (dead-owner steal with an epoch bump), never breach
// mutual exclusion, and never wedge the survivors. The RMEChecker audits
// every transition; the Go-side shadow count pins the counter exactly.
func uniRMEModel(p map[string]string) (Model, error) {
	workers, iters, err := workerIters(p)
	if err != nil {
		return nil, err
	}
	m := &uniModel{modelID: modelID{"uni-rme", p, ActKill}}
	m.run = func(ds []Decision, opt Options, vio *violations) uint64 {
		proc := uniproc.New(uniproc.Config{
			Quantum:   2000,
			MaxCycles: modelBudget,
			Faults:    newInjector(chaos.PointMemOp, ds),
		})
		proc.Tracer = opt.Tracer
		mtx := core.NewRecoverableMutex()
		mtx.Checker = core.NewRMEChecker()
		var counter core.Word
		var shadow uint64
		for w := 0; w < workers; w++ {
			proc.Go("worker", func(e *uniproc.Env) {
				for it := 0; it < iters; it++ {
					mtx.Acquire(e)
					v := e.Load(&counter)
					e.ChargeALU(1)
					shadow++
					e.Store(&counter, v+1)
					mtx.Release(e)
				}
			})
		}
		classifyUniErr(proc.Run(), vio)
		for _, s := range mtx.Checker.Violations() {
			vio.add("rme", "%s", s)
		}
		if uint64(counter) != shadow {
			vio.add("mutual-exclusion", "counter = %d, shadow = %d", counter, shadow)
		}
		for _, th := range proc.Threads() {
			if !th.Done() {
				vio.add("stuck", "thread %v never finished", th)
			}
		}
		return proc.MemOps()
	}
	return m, nil
}
