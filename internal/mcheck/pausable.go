package mcheck

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/asm"
	"repro/internal/chaos"
	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/vmach"
	"repro/internal/vmach/kernel"
	"repro/internal/vmach/smp"
)

// The pausable-substrate driver. Every model whose runs can stop at any
// ordinal, be hashed there and be forked there is a pausableModel: one
// instance type owns the decision list, the violation record and the
// run/end/fork/hash skeleton, and a stepper carries the substrate:
//
//   - kernelStepper: one vmach kernel, ordinals are retired instructions;
//   - rebootStepper: one kernel over persistent memory that crashes and
//     reboots at each decision, ordinals are persist operations;
//   - smpStepper: an SMP system interleaved CPU by CPU, ordinals are
//     scheduler steps.
//
// What a workload checks — watchpoints, crash audits, end-state
// invariants — are the model's hooks.

// modelID is what every model reports about itself.
type modelID struct {
	name    string
	params  map[string]string
	primary Action
}

func (m *modelID) Name() string              { return m.name }
func (m *modelID) Params() map[string]string { return m.params }
func (m *modelID) Primary() Action           { return m.primary }

// pausableModel is a model whose instances pause, hash and fork.
type pausableModel struct {
	modelID
	// start builds a fresh instance's substrate: program loaded, threads
	// spawned, in.ds installed. Forks copy a paused substrate instead.
	start func(in *instance) (stepper, error)
	// watch installs an instance's watchpoints. New and Fork both call
	// it, so every copy judges its own run.
	watch func(in *instance)
	// crash is a rebooting stepper's crash transition at d: it audits
	// the machine and discards its volatile tier, in the order the
	// model's invariant needs.
	crash func(in *instance, d Decision)
	// finish applies the end-state invariants once the run has ended.
	finish func(in *instance)
}

func (m *pausableModel) Pausable() bool { return true }

func (m *pausableModel) New(ds []Decision, opt Options) (Instance, error) {
	in := &instance{m: m, opt: opt, ds: ds, vio: &violations{}, holder: -1}
	s, err := m.start(in)
	if err != nil {
		return nil, err
	}
	in.s = s
	if m.watch != nil {
		m.watch(in)
	}
	return in, nil
}

// instance is the one Instance of every pausable model.
type instance struct {
	m   *pausableModel
	opt Options
	ds  []Decision
	vio *violations
	s   stepper

	done  bool
	ended bool

	// The running state the model's watchpoints keep; Fork copies it.
	holder int      // lock holder watchMutexCounter tracks, -1 for none
	count  uint64   // increments watchRME counts
	base   isa.Word // persist: the counter that survived into this boot
	order  []int    // qlock: global tids in tail-swap order
}

func (in *instance) RunTo(at uint64) bool {
	if !in.done {
		in.done = in.s.runTo(in, at)
	}
	return in.done
}

func (in *instance) RunToEnd() {
	in.RunTo(math.MaxUint64)
	if in.ended {
		return
	}
	in.ended = true
	in.s.verdict(in)
	if in.m.finish != nil {
		in.m.finish(in)
	}
}

// Fork copies the paused substrate under the fork's own decisions and
// watchpoints, and carries the watchpoints' state across.
func (in *instance) Fork(d Decision) Instance {
	c := *in
	c.ds = withDecision(in.ds, d)
	c.vio = in.vio.clone()
	c.order = slices.Clone(in.order)
	c.s = in.s.fork(&c)
	if c.m.watch != nil {
		c.m.watch(&c)
	}
	return &c
}

func (in *instance) Cursor() uint64              { return in.s.cursor() }
func (in *instance) Violations() []Violation     { return in.vio.list }
func (in *instance) StateHash() ([32]byte, bool) { return in.s.hash(), true }

// mem is the memory the hooks watch and read.
func (in *instance) mem() *vmach.Memory { return in.s.memory() }

// kern is the running kernel of a kernel or rebooting stepper.
func (in *instance) kern() *kernel.Kernel {
	if s, ok := in.s.(*rebootStepper); ok {
		return s.k
	}
	return in.s.(*kernelStepper).k
}

// current is the running thread's ID, -1 between timeslices: whom a
// watchpoint attributes a store to.
func (in *instance) current() int {
	if t := in.kern().Current(); t != nil {
		return t.ID
	}
	return -1
}

// classify folds a kernel's terminal error into the violation taxonomy.
// cpu names the kernel's CPU on an SMP stepper and is -1 elsewhere. A
// schedule with a crash decision ends in ErrMachineCrash by design.
func (in *instance) classify(cpu int, err error) {
	if err == nil {
		return
	}
	prefix := ""
	if cpu >= 0 {
		prefix = fmt.Sprintf("cpu%d: ", cpu)
	}
	switch {
	case errors.Is(err, kernel.ErrDeadlock):
		in.vio.add("deadlock", "%s%v", prefix, err)
	case errors.Is(err, kernel.ErrLivelock):
		in.vio.add("restart-livelock", "%s%v", prefix, err)
	case errors.Is(err, kernel.ErrBudget):
		in.vio.add("budget", "%s%v", prefix, err)
	case errors.Is(err, kernel.ErrMachineCrash):
		if !hasAct(in.ds, ActCrash) {
			in.vio.add("crash", "%s%v", prefix, err)
		}
	default:
		in.vio.add("abort", "%s%v", prefix, err)
	}
}

func hasAct(ds []Decision, a Action) bool {
	for _, d := range ds {
		if d.Act == a {
			return true
		}
	}
	return false
}

// stepper is the substrate under an instance.
type stepper interface {
	// runTo advances until the cursor reaches at or the run ends, and
	// reports whether it ended.
	runTo(in *instance, at uint64) (done bool)
	// cursor is the current event ordinal.
	cursor() uint64
	// hash is the canonical hash of the paused state.
	hash() [32]byte
	// fork copies the paused substrate for c, a fork whose decisions
	// are already set.
	fork(c *instance) stepper
	// verdict classifies the ended run's terminal errors.
	verdict(in *instance)
	memory() *vmach.Memory
}

// ---------------------------------------------------------------------
// kernelStepper: a fresh kernel over the model's program, with the
// schedule rendered as a chaos injector at PointStep and the timer
// effectively disabled (the schedule is the only scheduler). The
// ordinal space is kernel.Steps(): retired user instructions.

type kernelStepper struct {
	k *kernel.Kernel
	// strategy returns a fresh recovery strategy per kernel (nil: none).
	strategy func() kernel.Strategy
	runErr   error
}

// kernelModel is a single-kernel model whose instances setup loads and
// spawns.
func kernelModel(id modelID, strategy func() kernel.Strategy, setup func(k *kernel.Kernel) error) *pausableModel {
	return &pausableModel{modelID: id, start: func(in *instance) (stepper, error) {
		s := &kernelStepper{strategy: strategy}
		s.k = newKernel(s.config(in.ds), in.opt)
		return s, setup(s.k)
	}}
}

// config is the standard model-checking kernel: the schedule's injector
// installed (always, so step ordinals count), the timer parked.
func (s *kernelStepper) config(ds []Decision) kernel.Config {
	return kernel.Config{
		Strategy:  s.strategy(),
		Quantum:   modelQuantum,
		MaxCycles: modelBudget,
		Faults:    newInjector(chaos.PointStep, ds),
	}
}

func (s *kernelStepper) runTo(_ *instance, at uint64) bool {
	for s.k.Steps() < at {
		if fin, err := s.k.StepOne(); fin {
			s.runErr = err
			return true
		}
	}
	return false
}

func (s *kernelStepper) fork(c *instance) stepper {
	f := *s
	f.k = forkKernel(s.k, s.config(c.ds), c.opt)
	return &f
}

func (s *kernelStepper) cursor() uint64        { return s.k.Steps() }
func (s *kernelStepper) hash() [32]byte        { return hashKernel(s.k) }
func (s *kernelStepper) verdict(in *instance)  { in.classify(-1, s.runErr) }
func (s *kernelStepper) memory() *vmach.Memory { return s.k.M.Mem }

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

// ---------------------------------------------------------------------
// rebootStepper: the program's main thread on a kernel over memory with
// the two-tier NVRAM persistence model enabled. A decision is not a
// chaos injection but a transition the run continues through: the
// model's crash hook audits the machine and discards the volatile tier,
// and the same binary boots over what survived.
//
// The ordinal space is retired persist operations — flushes plus
// fences, accumulated across reboots — so an exhaustive K=1 walk is
// literally "crash at every persist boundary", and with K=2 the second
// crash can land inside recovery itself.

type rebootStepper struct {
	prog *asm.Program
	mem  *vmach.Memory
	k    *kernel.Kernel
	next int // next decision to fire
	// opsBase is the persist-op count retired by previous boots; the
	// cursor is opsBase plus the current kernel's flush+fence tally.
	opsBase uint64
	boots   int
	runErr  error
}

// rebootModel is a crash-and-reboot model over prog. Its decisions must
// be crash-volatile, or also crash-torn when torn is set.
func rebootModel(id modelID, prog *asm.Program, torn bool) *pausableModel {
	kinds := "crash-volatile"
	if torn {
		kinds = "crash"
	}
	return &pausableModel{modelID: id, start: func(in *instance) (stepper, error) {
		for _, d := range in.ds {
			if d.Act != ActCrashVolatile && !(torn && d.Act == ActCrashTorn) {
				return nil, fmt.Errorf("mcheck: %s: only %s decisions apply (got %s)", id.name, kinds, d.Act)
			}
		}
		s := &rebootStepper{prog: prog, mem: vmach.NewMemory()}
		s.mem.EnablePersistence()
		s.boot(in.opt)
		return s, nil
	}}
}

// config is every boot's kernel: Taos-style recovery over the stepper's
// memory, the timer parked, no injector.
func (s *rebootStepper) config() kernel.Config {
	return kernel.Config{
		Strategy:  &kernel.Designated{},
		CheckAt:   kernel.CheckAtResume,
		Quantum:   modelQuantum,
		MaxCycles: modelBudget,
		Memory:    s.mem,
	}
}

// boot starts a kernel over the surviving memory. Only the first boot
// loads the program image: on a reboot the image is already durable in
// NVM, and reloading would reset the very words recovery reads.
func (s *rebootStepper) boot(opt Options) {
	s.k = newKernel(s.config(), opt)
	if s.boots == 0 {
		s.k.Load(s.prog)
	}
	s.k.Spawn(s.prog.MustSymbol("main"), guest.StackTop(0))
}

func (s *rebootStepper) cursor() uint64 {
	return s.opsBase + s.k.M.Stats.Flushes + s.k.M.Stats.Fences
}

func (s *rebootStepper) runTo(in *instance, at uint64) bool {
	for s.cursor() < at {
		fin, err := s.k.StepOne()
		// A persist op just retired the next decision's ordinal: crash
		// here. Each instruction advances the cursor by at most one and
		// a schedule holds one decision per ordinal, so at most one
		// decision fires per step.
		if s.next < len(in.ds) && s.cursor() >= in.ds[s.next].At {
			d := in.ds[s.next]
			s.next++
			s.opsBase = s.cursor()
			in.m.crash(in, d)
			s.boots++
			s.boot(in.opt)
			continue
		}
		if fin {
			s.runErr = err
			return true
		}
	}
	return false
}

// fork copies the paused kernel onto a memory of the fork's own; the
// cursor and boot bookkeeping come along with the struct.
func (s *rebootStepper) fork(c *instance) stepper {
	f := *s
	f.mem = vmach.NewMemory()
	f.k = forkKernel(s.k, f.config(), c.opt)
	return &f
}

// hash extends the canonical kernel hash with behavioral state the
// normalized kernel image lacks: normalizeKernel zeroes the machine
// stats the cursor lives in, and two runs paused in identical kernel
// states still differ if their remaining crashes start at different
// ordinals or boot counts.
func (s *rebootStepper) hash() [32]byte {
	h := hashKernel(s.k)
	var extra [16]byte
	binary.LittleEndian.PutUint64(extra[:8], s.cursor())
	binary.LittleEndian.PutUint64(extra[8:], uint64(s.next)|uint64(s.boots)<<32)
	return sha256.Sum256(append(h[:], extra[:]...))
}

func (s *rebootStepper) verdict(in *instance)  { in.classify(-1, s.runErr) }
func (s *rebootStepper) memory() *vmach.Memory { return s.mem }

// discard drops mem's volatile tier the way crash decision d says: torn
// write-backs for ActCrashTorn, the tear derived from the decision
// ordinal so a .sched replays the exact same split.
func discard(mem *vmach.Memory, d Decision) {
	if d.Act == ActCrashTorn {
		mem.DiscardUnflushedTorn(d.At)
	} else {
		mem.DiscardUnflushed()
	}
}

// ---------------------------------------------------------------------
// smpStepper interleaves whole CPUs: the ordinal space counts scheduler
// steps across all CPUs, and an ActSwitch decision hands the
// interleaving to the next unfinished CPU at that ordinal. Between
// decisions the current CPU keeps stepping, up to a fairness quantum of
// turnMax steps after which the interleaving rotates on its own.

type smpStepper struct {
	sys *smp.System
	// config is the system config a fork forcing ds is built from.
	config  func(ds []Decision) smp.Config
	turnMax uint64
	// kill applies ActKill decisions to thread 0 of the CPU holding the
	// interleaving; kills counts the ones that struck.
	kill  bool
	kills int

	di    int    // next decision is ds[di]
	cur   int    // CPU holding the interleaving
	steps uint64 // global step ordinal: total StepCPU calls
	turn  uint64 // steps since the interleaving last moved
}

// rotate hands the interleaving to the next unfinished CPU.
func (s *smpStepper) rotate() {
	n := len(s.sys.CPUs)
	for j := 1; j <= n; j++ {
		c := (s.cur + j) % n
		if !s.sys.Done(c) {
			s.cur = c
			break
		}
	}
	s.turn = 0
}

func (s *smpStepper) runTo(in *instance, at uint64) bool {
	for s.steps < at {
		if s.sys.AllDone() {
			return true
		}
		if s.sys.Done(s.cur) || s.turn >= s.turnMax {
			s.rotate()
		}
		s.sys.StepCPU(s.cur)
		s.steps++
		s.turn++
		for ; s.di < len(in.ds) && in.ds[s.di].At == s.steps; s.di++ {
			switch in.ds[s.di].Act {
			case ActSwitch:
				s.rotate()
			case ActKill:
				if s.kill && s.sys.KillThread(s.cur, 0) == nil {
					s.kills++
				}
			}
		}
		if s.sys.AllDone() {
			return true
		}
	}
	return false
}

func (s *smpStepper) fork(c *instance) stepper {
	f := *s
	f.sys = forkSystem(s.sys, s.config(c.ds), c.opt)
	return &f
}

func (s *smpStepper) verdict(in *instance) {
	for c := range s.sys.CPUs {
		in.classify(c, s.sys.CPUVerdict(c))
	}
}

func (s *smpStepper) cursor() uint64        { return s.steps }
func (s *smpStepper) hash() [32]byte        { return hashSMP(s.sys, s.cur, s.turn) }
func (s *smpStepper) memory() *vmach.Memory { return s.sys.Mem }

// newSystem builds a system from cfg with the harness tracer attached.
func newSystem(cfg smp.Config, opt Options) *smp.System {
	sys := smp.New(cfg)
	if opt.Tracer != nil {
		sys.AttachTracer(opt.Tracer)
	}
	return sys
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
