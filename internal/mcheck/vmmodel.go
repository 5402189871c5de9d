package mcheck

import (
	"errors"
	"fmt"

	"repro/internal/asm"
	"repro/internal/chaos"
	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/vmach/kernel"
)

// vmach-backed models. Every instance is a fresh kernel over the model's
// pre-assembled program, with the schedule rendered as a chaos injector
// at PointStep, the timer effectively disabled (the schedule is the only
// scheduler), and a generous cycle budget as a safety net. The decision
// ordinal space is kernel.Steps(): retired user instructions.

// modelQuantum pushes the timer past any bounded run, so the only
// preemptions are the schedule's. modelBudget is the runaway net.
const (
	modelQuantum = uint64(1) << 40
	modelBudget  = uint64(20_000_000)
)

type vmachModel struct {
	name    string
	params  map[string]string
	primary Action
	prog    *asm.Program
	// strategy returns a fresh recovery strategy for one instance (nil:
	// none).
	strategy func() kernel.Strategy
	// setup loads the program and spawns the workload into a fresh
	// kernel. Forks skip it: they restore a paused instance instead.
	setup func(k *kernel.Kernel) error
	// watch installs an instance's watchpoints and end-state check. New
	// and Fork both call it, so every copy judges its own run.
	watch func(in *vmachInstance)
	// build, when set, replaces the hooks above with a model's own
	// instance type (persist, journal).
	build func(m *vmachModel, ds []Decision, opt Options) (Instance, error)
}

func (m *vmachModel) Name() string              { return m.name }
func (m *vmachModel) Params() map[string]string { return m.params }
func (m *vmachModel) Primary() Action           { return m.primary }
func (m *vmachModel) Pausable() bool            { return true }
func (m *vmachModel) New(ds []Decision, opt Options) (Instance, error) {
	if m.build != nil {
		return m.build(m, ds, opt)
	}
	in := &vmachInstance{m: m, opt: opt, ds: ds, vio: &violations{}, holder: -1}
	in.k = newKernel(in.config(), opt)
	if err := m.setup(in.k); err != nil {
		return nil, err
	}
	m.watch(in)
	return in, nil
}

type vmachInstance struct {
	m   *vmachModel
	opt Options
	ds  []Decision
	k   *kernel.Kernel
	vio *violations
	// holder and increments are the watchpoints' running state: the lock
	// holder watchMutexCounter tracks and the increments watchRME counts.
	holder     int
	increments uint64

	done   bool
	ended  bool
	runErr error
	// finish applies the model's end-state invariants.
	finish func()
}

// config is the standard model-checking kernel: the schedule's injector
// installed (always, so step ordinals count), the timer parked.
func (in *vmachInstance) config() kernel.Config {
	return kernel.Config{
		Strategy:  in.m.strategy(),
		Quantum:   modelQuantum,
		MaxCycles: modelBudget,
		Faults:    newInjector(chaos.PointStep, in.ds),
	}
}

// Fork copies the paused kernel under a kernel config and watchpoints of
// the fork's own, and carries the watchpoints' state across.
func (in *vmachInstance) Fork(d Decision) Instance {
	c := *in
	c.ds = withDecision(in.ds, d)
	c.vio = in.vio.clone()
	c.k = forkKernel(in.k, c.config(), in.opt)
	c.finish = nil
	in.m.watch(&c)
	return &c
}

func (in *vmachInstance) step() {
	fin, err := in.k.StepOne()
	if fin {
		in.done = true
		in.runErr = err
	}
}

func (in *vmachInstance) RunTo(at uint64) bool {
	for !in.done && in.k.Steps() < at {
		in.step()
	}
	return in.done
}

func (in *vmachInstance) RunToEnd() {
	for !in.done {
		in.step()
	}
	if in.ended {
		return
	}
	in.ended = true
	in.classify()
	if in.finish != nil {
		in.finish()
	}
}

// classify folds the kernel's terminal error into the violation taxonomy.
// A schedule with a crash decision ends in ErrMachineCrash by design.
func (in *vmachInstance) classify() {
	err := in.runErr
	switch {
	case err == nil:
	case errors.Is(err, kernel.ErrDeadlock):
		in.vio.add("deadlock", "%v", err)
	case errors.Is(err, kernel.ErrLivelock):
		in.vio.add("restart-livelock", "%v", err)
	case errors.Is(err, kernel.ErrBudget):
		in.vio.add("budget", "%v", err)
	case errors.Is(err, kernel.ErrMachineCrash):
		if !hasAct(in.ds, ActCrash) {
			in.vio.add("crash", "%v", err)
		}
	default:
		in.vio.add("abort", "%v", err)
	}
}

func (in *vmachInstance) Cursor() uint64          { return in.k.Steps() }
func (in *vmachInstance) Violations() []Violation { return in.vio.list }
func (in *vmachInstance) StateHash() ([32]byte, bool) {
	return hashKernel(in.k), true
}

// current is the running thread's ID, -1 between timeslices: whom a
// watchpoint attributes a store to.
func (in *vmachInstance) current() int {
	if t := in.k.Current(); t != nil {
		return t.ID
	}
	return -1
}

// counter reads the workload's counter word at the end of the run.
func (in *vmachInstance) counter() isa.Word {
	return in.k.M.Mem.Peek(in.m.prog.MustSymbol("counter"))
}

func hasAct(ds []Decision, a Action) bool {
	for _, d := range ds {
		if d.Act == a {
			return true
		}
	}
	return false
}

// newKernel builds a kernel from cfg with the harness tracer attached.
func newKernel(cfg kernel.Config, opt Options) *kernel.Kernel {
	k := kernel.New(cfg)
	if opt.Tracer != nil {
		k.Tracer = opt.Tracer
	}
	return k
}

// forkKernel copies a paused kernel into a fresh one built from cfg: the
// restored snapshot plus the sticky halt a snapshot does not carry.
func forkKernel(k *kernel.Kernel, cfg kernel.Config, opt Options) *kernel.Kernel {
	c, err := kernel.Restore(cfg, k.Capture())
	if err != nil {
		// The fork's config names the strategy and profile the original
		// was built with, so a restore cannot be refused.
		panic(fmt.Sprintf("mcheck: fork: %v", err))
	}
	c.InheritHalt(k)
	if opt.Tracer != nil {
		c.Tracer = opt.Tracer
	}
	return c
}

// loadMain is the setup of workloads whose main thread spawns the rest.
func loadMain(prog *asm.Program) func(k *kernel.Kernel) error {
	return func(k *kernel.Kernel) error {
		k.Load(prog)
		k.Spawn(prog.MustSymbol("main"), guest.StackTop(0))
		return nil
	}
}

// watchMutexCounter installs the mutual-exclusion and lost-update
// checkers on a lock/counter workload: ownership is tracked at the lock
// word, and judged at the counter — the critical section's effect — so a
// losing test-and-set harmlessly re-storing 1 does not false-positive.
func (in *vmachInstance) watchMutexCounter() {
	mem := in.k.M.Mem
	mem.Watch(in.m.prog.MustSymbol("lock"), func(old, new isa.Word) {
		me := in.current()
		switch {
		case old == 0 && new != 0:
			in.holder = me
		case old != 0 && new == 0:
			if me != in.holder {
				in.vio.add("lock-discipline", "t%d released the lock held by t%d", me, in.holder)
			}
			in.holder = -1
		}
	})
	mem.Watch(in.m.prog.MustSymbol("counter"), func(old, new isa.Word) {
		me := in.current()
		if me != in.holder {
			in.vio.add("mutual-exclusion", "t%d stored counter %d->%d while t%d holds the lock", me, old, new, in.holder)
		}
		if new != old+1 {
			in.vio.add("lost-update", "counter store %d->%d is not an increment", old, new)
		}
	})
}

// strategyByName builds a fresh recovery strategy per instance.
func strategyByName(s string) (kernel.Strategy, error) {
	switch s {
	case "none":
		return nil, nil
	case "registration":
		return &kernel.Registration{}, nil
	case "designated":
		return &kernel.Designated{}, nil
	case "multi":
		return kernel.NewMultiRegistration(), nil
	}
	return nil, fmt.Errorf("mcheck: unknown strategy %q", s)
}

// counterModel checks guest.MutexCounterProgram — the paper's Figure-3
// (registered) and Figure-5 (designated) sequences, plus the unprotected
// control (mech=none) the checker must catch.
func counterModel(p map[string]string) (Model, error) {
	mech, err := counterMech(p["mech"])
	if err != nil {
		return nil, err
	}
	workers, iters, err := workerIters(p)
	if err != nil {
		return nil, err
	}
	prog, err := asm.Assemble(guest.MutexCounterProgram(mech, workers, iters))
	if err != nil {
		return nil, fmt.Errorf("mcheck: counter: %v", err)
	}
	m := &vmachModel{name: "counter", params: p, primary: ActPreempt, prog: prog,
		strategy: func() kernel.Strategy {
			strat, _ := strategyByName(counterStrategy(mech))
			return strat
		},
		setup: loadMain(prog),
	}
	want := isa.Word(workers * iters)
	m.watch = func(in *vmachInstance) {
		in.watchMutexCounter()
		kills := hasAct(in.ds, ActKill)
		in.finish = func() {
			switch got := in.counter(); {
			case !kills && got != want:
				in.vio.add("counter-exact", "counter = %d, want %d", got, want)
			case kills && got > want:
				in.vio.add("counter-exact", "counter = %d exceeds %d with kills", got, want)
			}
		}
	}
	return m, nil
}

func counterMech(s string) (guest.Mechanism, error) {
	switch s {
	case "none":
		return guest.MechNone, nil
	case "registered":
		return guest.MechRegistered, nil
	case "designated":
		return guest.MechDesignated, nil
	}
	return 0, fmt.Errorf("mcheck: counter: unknown mech %q", s)
}

func counterStrategy(m guest.Mechanism) string {
	switch m {
	case guest.MechRegistered:
		return "registration"
	case guest.MechDesignated:
		return "designated"
	}
	return "none"
}

// broken2storeModel is the deliberately malformed two-store sequence.
// kernel.VerifySequence rejects it at registration time, so the harness
// installs the range through the MultiRegistration backdoor — bypassing
// the static check on purpose to prove the dynamic checker catches what
// slips through.
func broken2storeModel(p map[string]string) (Model, error) {
	workers, iters, err := workerIters(p)
	if err != nil {
		return nil, err
	}
	prog, err := asm.Assemble(guest.BrokenTwoStoreProgram())
	if err != nil {
		return nil, fmt.Errorf("mcheck: broken2store: %v", err)
	}
	m := &vmachModel{name: "broken2store", params: p, primary: ActPreempt, prog: prog,
		strategy: func() kernel.Strategy { return kernel.NewMultiRegistration() },
		setup: func(k *kernel.Kernel) error {
			k.Load(prog)
			lo, hi := prog.MustSymbol("bad_seq"), prog.MustSymbol("bad_end")
			if err := k.VerifySequence(lo, hi-lo); err == nil {
				return fmt.Errorf("mcheck: broken2store: verifier accepted the malformed range")
			}
			k.Strategy.(*kernel.MultiRegistration).AddRange(lo, hi-lo)
			for w := 0; w < workers; w++ {
				k.Spawn(prog.MustSymbol("worker"), guest.StackTop(w), isa.Word(iters))
			}
			return nil
		},
	}
	want := isa.Word(workers * iters)
	m.watch = func(in *vmachInstance) {
		kills := hasAct(in.ds, ActKill)
		in.finish = func() {
			if got := in.counter(); got != want && !kills {
				in.vio.add("counter-exact", "counter = %d, want %d (restart re-applied a committed store)", got, want)
			}
		}
	}
	return m, nil
}

// recoverableModel checks guest.RecoverableCounterProgram — the
// owner+epoch recoverable lock — under forced kills: the RME dead-owner-
// repair invariants (increments only under the lock, steals only from
// the dead, epoch bumps exactly once per steal) as memory watchpoints.
func recoverableModel(p map[string]string) (Model, error) {
	workers, iters, err := workerIters(p)
	if err != nil {
		return nil, err
	}
	if _, err := strategyByName(p["strategy"]); err != nil {
		return nil, err
	}
	prog, err := asm.Assemble(guest.RecoverableCounterProgram(workers, iters))
	if err != nil {
		return nil, fmt.Errorf("mcheck: recoverable: %v", err)
	}
	m := &vmachModel{name: "recoverable", params: p, primary: ActKill, prog: prog,
		strategy: func() kernel.Strategy {
			strat, _ := strategyByName(p["strategy"])
			return strat
		},
		setup: loadMain(prog),
	}
	want := isa.Word(workers * iters)
	m.watch = func(in *vmachInstance) {
		in.watchRME()
		kills := hasAct(in.ds, ActKill)
		in.finish = func() {
			got := in.counter()
			if got != isa.Word(in.increments) {
				in.vio.add("rme", "counter = %d but %d watched increments", got, in.increments)
			}
			if !kills && got != want {
				in.vio.add("counter-exact", "counter = %d, want %d", got, want)
			}
			if kills && got > want {
				in.vio.add("counter-exact", "counter = %d exceeds %d", got, want)
			}
		}
	}
	return m, nil
}

// watchRME installs the recoverable-mutex watchpoints on the owner+epoch
// lock word (low 16 bits: owner thread ID + 1; high bits: steal epoch)
// and the counter, which also counts the watched increments.
func (in *vmachInstance) watchRME() {
	mem := in.k.M.Mem
	lockAddr := in.m.prog.MustSymbol("lock")
	mem.Watch(lockAddr, func(old, new isa.Word) {
		me := in.current()
		oldOwner, newOwner := int(old&0xFFFF), int(new&0xFFFF)
		oldEpoch, newEpoch := old>>16, new>>16
		switch {
		case oldOwner == 0 && newOwner != 0:
			if newOwner != me+1 || newEpoch != oldEpoch {
				in.vio.add("rme", "bad acquire %#x->%#x by t%d", old, new, me)
			}
		case oldOwner != 0 && newOwner == 0:
			if oldOwner != me+1 || newEpoch != oldEpoch {
				in.vio.add("rme", "bad release %#x->%#x by t%d", old, new, me)
			}
		case oldOwner != 0 && newOwner != 0:
			if newOwner != me+1 || newEpoch != oldEpoch+1 {
				in.vio.add("rme", "bad steal %#x->%#x by t%d", old, new, me)
			}
			if in.k.ThreadAlive(oldOwner - 1) {
				in.vio.add("mutual-exclusion", "t%d stole the lock from live t%d", me, oldOwner-1)
			}
		}
	})
	mem.Watch(in.m.prog.MustSymbol("counter"), func(old, new isa.Word) {
		in.increments++
		lock := mem.Peek(lockAddr)
		if me := in.current(); int(lock&0xFFFF) != me+1 || new != old+1 {
			in.vio.add("mutual-exclusion", "t%d incremented %d->%d with lock %#x", me, old, new, lock)
		}
	})
}
