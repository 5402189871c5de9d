package mcheck

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/vmach/smp"
)

// smpTurn is the smpStepper's fairness quantum for smp-counter and
// percpu-server: after smpTurn steps on one CPU the interleaving rotates
// on its own — without that floor, a schedule that parks the
// interleaving on a CPU spinning for a lock another CPU holds would
// starve the holder and report a fake livelock. The schedule space
// explored is therefore "round-robin at smpTurn granularity plus up to
// K forced switches at arbitrary step ordinals" — a context-bound in the
// Qadeer–Rehof sense, with K the bound.
const smpTurn = 4096

// smpBudget bounds each CPU's cycles; spin-waits burn cycles fast, so
// this is higher than the single-CPU budget.
const smpBudget = uint64(50_000_000)

// smpCounterModel checks guest.SMPCounterProgram under the smpStepper.
// The counter watchpoint IS the mutual-exclusion checker on shared
// memory: each critical section is lw/addi/sw, so two overlapping
// passages surface as a store that is not old+1.
func smpCounterModel(p map[string]string) (Model, error) {
	var lock guest.SMPLock
	switch p["lock"] {
	case "hybrid":
		lock = guest.SMPHybrid
	case "spinlock":
		lock = guest.SMPSpin
	case "llsc":
		lock = guest.SMPLLSC
	case "ras-only":
		lock = guest.SMPRASOnly
	default:
		return nil, fmt.Errorf("mcheck: smp-counter: unknown lock %q", p["lock"])
	}
	cpus, err := paramInt(p, "cpus")
	if err != nil {
		return nil, err
	}
	iters, err := paramInt(p, "iters")
	if err != nil {
		return nil, err
	}
	prog, err := asm.Assemble(guest.SMPCounterProgram(lock, cpus))
	if err != nil {
		return nil, fmt.Errorf("mcheck: smp-counter: %v", err)
	}
	cfg := smp.Config{CPUs: cpus, Quantum: modelQuantum, MaxCycles: smpBudget}
	config := func([]Decision) smp.Config { return cfg }
	worker, counter := prog.MustSymbol("worker"), prog.MustSymbol("counter")
	want := isa.Word(cpus * iters)
	return &pausableModel{
		modelID: modelID{"smp-counter", p, ActSwitch},
		start: func(in *instance) (stepper, error) {
			sys := newSystem(cfg, in.opt)
			sys.Load(prog)
			for c := 0; c < cpus; c++ {
				sys.Spawn(c, worker, guest.StackTop(smp.GlobalID(c, 0)), isa.Word(iters))
			}
			return &smpStepper{sys: sys, config: config, turnMax: smpTurn}, nil
		},
		watch: func(in *instance) { watchIncrements(in, counter) },
		finish: func(in *instance) {
			if got := in.mem().Peek(counter); got != want {
				in.vio.add("counter-exact", "counter = %d, want %d", got, want)
			}
		},
	}, nil
}

// watchIncrements reports every store to the counter that is not an
// increment.
func watchIncrements(in *instance, counter uint32) {
	in.mem().Watch(counter, func(old, new isa.Word) {
		if new != old+1 {
			in.vio.add("lost-update", "counter store %d->%d is not an increment", old, new)
		}
	})
}
