package mcheck

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/vmach/kernel"
)

// vmach-backed models: kernelModels over a pre-assembled program, run
// by the kernelStepper with a generous cycle budget as a safety net.

// modelQuantum pushes the timer past any bounded run, so the only
// preemptions are the schedule's. modelBudget is the runaway net.
const (
	modelQuantum = uint64(1) << 40
	modelBudget  = uint64(20_000_000)
)

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
func watchMutexCounter(in *instance, lock, counter uint32) {
	mem := in.mem()
	mem.Watch(lock, func(old, new isa.Word) {
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
	mem.Watch(counter, func(old, new isa.Word) {
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
	m := kernelModel(modelID{"counter", p, ActPreempt}, func() kernel.Strategy {
		strat, _ := strategyByName(counterStrategy(mech))
		return strat
	}, loadMain(prog))
	lock, counter := prog.MustSymbol("lock"), prog.MustSymbol("counter")
	want := isa.Word(workers * iters)
	m.watch = func(in *instance) { watchMutexCounter(in, lock, counter) }
	m.finish = func(in *instance) {
		switch got, kills := in.mem().Peek(counter), hasAct(in.ds, ActKill); {
		case !kills && got != want:
			in.vio.add("counter-exact", "counter = %d, want %d", got, want)
		case kills && got > want:
			in.vio.add("counter-exact", "counter = %d exceeds %d with kills", got, want)
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
	m := kernelModel(modelID{"broken2store", p, ActPreempt},
		func() kernel.Strategy { return kernel.NewMultiRegistration() },
		func(k *kernel.Kernel) error {
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
		})
	counter := prog.MustSymbol("counter")
	want := isa.Word(workers * iters)
	m.finish = func(in *instance) {
		if got := in.mem().Peek(counter); got != want && !hasAct(in.ds, ActKill) {
			in.vio.add("counter-exact", "counter = %d, want %d (restart re-applied a committed store)", got, want)
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
	m := kernelModel(modelID{"recoverable", p, ActKill}, func() kernel.Strategy {
		strat, _ := strategyByName(p["strategy"])
		return strat
	}, loadMain(prog))
	lock, counter := prog.MustSymbol("lock"), prog.MustSymbol("counter")
	want := isa.Word(workers * iters)
	m.watch = func(in *instance) { watchRME(in, lock, counter, false) }
	m.finish = func(in *instance) {
		got, kills := in.mem().Peek(counter), hasAct(in.ds, ActKill)
		if got != isa.Word(in.count) {
			in.vio.add("rme", "counter = %d but %d watched increments", got, in.count)
		}
		if !kills && got != want {
			in.vio.add("counter-exact", "counter = %d, want %d", got, want)
		}
		if kills && got > want {
			in.vio.add("counter-exact", "counter = %d exceeds %d", got, want)
		}
	}
	return m, nil
}

// watchRME installs the recoverable-mutex watchpoints on the owner+epoch
// lock word (low 16 bits: owner thread ID + 1; high bits: steal epoch)
// and the counter, which also counts the watched increments. With
// bootRepair the lock may also go free the way crash recovery frees it:
// main (thread 0, alone) releasing a dead owner's lock with the epoch
// bumped, before any worker exists.
func watchRME(in *instance, lock, counter uint32, bootRepair bool) {
	mem := in.mem()
	mem.Watch(lock, func(old, new isa.Word) {
		me := in.current()
		oldOwner, newOwner := int(old&0xFFFF), int(new&0xFFFF)
		oldEpoch, newEpoch := old>>16, new>>16
		switch {
		case oldOwner == 0 && newOwner != 0:
			if newOwner != me+1 || newEpoch != oldEpoch {
				in.vio.add("rme", "bad acquire %#x->%#x by t%d", old, new, me)
			}
		case oldOwner != 0 && newOwner == 0:
			switch {
			case oldOwner == me+1 && newEpoch == oldEpoch:
				// Release by the owner.
			case !bootRepair:
				in.vio.add("rme", "bad release %#x->%#x by t%d", old, new, me)
			case me == 0 && newEpoch == oldEpoch+1 && !in.kern().ThreadAlive(oldOwner-1):
				// Boot-time repair of a crashed boot's owner.
			default:
				in.vio.add("rme", "bad release/repair %#x->%#x by t%d", old, new, me)
			}
		case oldOwner != 0 && newOwner != 0:
			if newOwner != me+1 || newEpoch != oldEpoch+1 {
				in.vio.add("rme", "bad steal %#x->%#x by t%d", old, new, me)
			}
			if in.kern().ThreadAlive(oldOwner - 1) {
				in.vio.add("mutual-exclusion", "t%d stole the lock from live t%d", me, oldOwner-1)
			}
		}
	})
	mem.Watch(counter, func(old, new isa.Word) {
		in.count++
		w := mem.Peek(lock)
		if me := in.current(); int(w&0xFFFF) != me+1 || new != old+1 {
			in.vio.add("mutual-exclusion", "t%d incremented %d->%d with lock %#x", me, old, new, w)
		}
	})
}
