package mcheck

import (
	"errors"
	"fmt"

	"repro/internal/asm"
	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/vmach/kernel"
	"repro/internal/vmach/smp"
)

// The smp model interleaves whole CPUs: the decision ordinal space counts
// scheduler steps across all CPUs, and an ActSwitch decision hands the
// interleaving to the next unfinished CPU at that ordinal. Between
// decisions the current CPU keeps stepping, up to a fixed fairness
// quantum (smpTurn steps) after which the interleaving rotates on its
// own — without that floor, a schedule that parks the interleaving on a
// CPU spinning for a lock another CPU holds would starve the holder and
// report a fake livelock. The schedule space explored is therefore
// "round-robin at smpTurn granularity plus up to K forced switches at
// arbitrary step ordinals" — a context-bound in the Qadeer–Rehof sense,
// with K the bound.
const smpTurn = 4096

// smpBudget bounds each CPU's cycles; spin-waits burn cycles fast, so
// this is higher than the single-CPU budget.
const smpBudget = uint64(50_000_000)

type smpModel struct {
	params map[string]string
	lock   guest.SMPLock
	cpus   int
	iters  int
	prog   *asm.Program
}

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
	return &smpModel{params: p, lock: lock, cpus: cpus, iters: iters, prog: prog}, nil
}

func (m *smpModel) Name() string              { return "smp-counter" }
func (m *smpModel) Params() map[string]string { return m.params }
func (m *smpModel) Primary() Action           { return ActSwitch }
func (m *smpModel) Pausable() bool            { return true }

// config is the system config every instance runs under.
func (m *smpModel) config() smp.Config {
	return smp.Config{CPUs: m.cpus, Quantum: modelQuantum, MaxCycles: smpBudget}
}

func (m *smpModel) New(ds []Decision, opt Options) (Instance, error) {
	sys := smp.New(m.config())
	if opt.Tracer != nil {
		sys.AttachTracer(opt.Tracer)
	}
	sys.Load(m.prog)
	for c := 0; c < m.cpus; c++ {
		sys.Spawn(c, m.prog.MustSymbol("worker"), guest.StackTop(smp.GlobalID(c, 0)), isa.Word(m.iters))
	}
	in := &smpInstance{
		m: m, opt: opt, sys: sys, vio: &violations{}, ds: ds,
		want:        isa.Word(m.cpus * m.iters),
		counterAddr: m.prog.MustSymbol("counter"),
	}
	in.watch()
	return in, nil
}

type smpInstance struct {
	m     *smpModel
	opt   Options
	sys   *smp.System
	vio   *violations
	ds    []Decision // sorted by At; next is ds[di]
	di    int
	cur   int    // CPU holding the interleaving
	steps uint64 // global step ordinal: total StepCPU calls
	turn  uint64 // steps since the interleaving last moved

	want        isa.Word
	counterAddr uint32
	done        bool
	ended       bool
}

// watch installs the counter watchpoint. On shared memory it IS the
// mutual-exclusion checker: each critical section is lw/addi/sw, so two
// overlapping passages surface as a store that is not old+1.
func (in *smpInstance) watch() {
	in.sys.Mem.Watch(in.counterAddr, func(old, new isa.Word) {
		if new != old+1 {
			in.vio.add("lost-update", "counter store %d->%d is not an increment", old, new)
		}
	})
}

// Fork copies the paused system and the interleaving state, then watches
// the copy's memory.
func (in *smpInstance) Fork(d Decision) Instance {
	c := *in
	c.ds = withDecision(in.ds, d)
	c.vio = in.vio.clone()
	c.sys = forkSystem(in.sys, in.m.config(), in.opt)
	c.watch()
	return &c
}

// forkSystem copies a paused system into a fresh one built from cfg, with
// the harness tracer attached.
func forkSystem(s *smp.System, cfg smp.Config, opt Options) *smp.System {
	c, err := s.Fork(cfg)
	if err != nil {
		// cfg is the config s was built with: a restore cannot be refused.
		panic(fmt.Sprintf("mcheck: fork: %v", err))
	}
	if opt.Tracer != nil {
		c.AttachTracer(opt.Tracer)
	}
	return c
}

// rotate hands the interleaving to the next unfinished CPU.
func (in *smpInstance) rotate() {
	n := len(in.sys.CPUs)
	for j := 1; j <= n; j++ {
		c := (in.cur + j) % n
		if !in.sys.Done(c) {
			in.cur = c
			break
		}
	}
	in.turn = 0
}

func (in *smpInstance) step() {
	if in.sys.AllDone() {
		in.done = true
		return
	}
	if in.sys.Done(in.cur) || in.turn >= smpTurn {
		in.rotate()
	}
	in.sys.StepCPU(in.cur)
	in.steps++
	in.turn++
	for in.di < len(in.ds) && in.ds[in.di].At == in.steps {
		if in.ds[in.di].Act == ActSwitch {
			in.rotate()
		}
		in.di++
	}
	if in.sys.AllDone() {
		in.done = true
	}
}

func (in *smpInstance) RunTo(at uint64) bool {
	for !in.done && in.steps < at {
		in.step()
	}
	return in.done
}

func (in *smpInstance) RunToEnd() {
	for !in.done {
		in.step()
	}
	if in.ended {
		return
	}
	in.ended = true
	for c := range in.sys.CPUs {
		err := in.sys.CPUVerdict(c)
		switch {
		case err == nil:
		case errors.Is(err, kernel.ErrDeadlock):
			in.vio.add("deadlock", "cpu%d: %v", c, err)
		case errors.Is(err, kernel.ErrLivelock):
			in.vio.add("restart-livelock", "cpu%d: %v", c, err)
		case errors.Is(err, kernel.ErrBudget):
			in.vio.add("budget", "cpu%d: %v", c, err)
		default:
			in.vio.add("abort", "cpu%d: %v", c, err)
		}
	}
	if got := in.sys.Mem.Peek(in.counterAddr); got != in.want {
		in.vio.add("counter-exact", "counter = %d, want %d", got, in.want)
	}
}

func (in *smpInstance) Cursor() uint64          { return in.steps }
func (in *smpInstance) Violations() []Violation { return in.vio.list }
func (in *smpInstance) StateHash() ([32]byte, bool) {
	return hashSMP(in.sys, in.cur, in.turn), true
}
