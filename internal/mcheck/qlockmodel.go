package mcheck

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/qlock"
	"repro/internal/vmach/kernel"
	"repro/internal/vmach/smp"
)

// The qlock models check internal/qlock's queue locks the same way the
// smp model checks the paper's hybrid lock — whole-CPU interleaving
// with forced decisions at scheduler-step ordinals — but with a much
// smaller fairness quantum: queue locks hand off through memory, so a
// waiter parked on the interleaving for thousands of steps only burns
// horizon. The short quantum keeps whole contended runs inside an
// exhaustively walkable ordinal space.
const qlockTurn = 48

// qlockBudget bounds each CPU's cycles. Wedged queues (the MCS
// baseline under kills, the planted unspliced variant) surface as this
// budget tripping, which the end-state check reports as a violation.
const qlockBudget = uint64(2_000_000)

func qlockVariant(p map[string]string) (qlock.Variant, error) {
	switch p["variant"] {
	case "mcs":
		return qlock.MCS, nil
	case "rmcs":
		return qlock.RMCS, nil
	case "rmcs-unspliced":
		return qlock.RMCSUnspliced, nil
	}
	return 0, fmt.Errorf("mcheck: unknown qlock variant %q", p["variant"])
}

// qlockQueueModel checks MCS-family FIFO and exactness under forced
// CPU switches (no kills): the critical sections must be granted in
// exactly the order the tail swaps admitted the waiters.
type qlockQueueModel struct {
	params map[string]string
	cfg    qlock.Config
	prog   *asm.Program
}

func qlockQueueModelBuild(p map[string]string) (Model, error) {
	v, err := qlockVariant(p)
	if err != nil {
		return nil, err
	}
	cpus, err := paramInt(p, "cpus")
	if err != nil {
		return nil, err
	}
	iters, err := paramInt(p, "iters")
	if err != nil {
		return nil, err
	}
	cfg := qlock.Config{
		Variant:   v,
		CPUs:      cpus,
		Iters:     iters,
		Audit:     true,
		Quantum:   modelQuantum,
		MaxCycles: qlockBudget,
	}
	return &qlockQueueModel{params: p, cfg: cfg, prog: qlock.Assembled(cfg)}, nil
}

func (m *qlockQueueModel) Name() string              { return "qlock-queue" }
func (m *qlockQueueModel) Params() map[string]string { return m.params }
func (m *qlockQueueModel) Primary() Action           { return ActSwitch }
func (m *qlockQueueModel) Pausable() bool            { return true }

func (m *qlockQueueModel) New(ds []Decision, opt Options) (Instance, error) {
	r, err := qlock.NewWith(m.cfg, m.prog)
	if err != nil {
		return nil, err
	}
	if opt.Tracer != nil {
		r.Sys.AttachTracer(opt.Tracer)
	}
	in := &qlockInstance{run: r, opt: opt, vio: &violations{}, ds: ds, turnMax: qlockTurn, fifo: true}
	in.watch()
	return in, nil
}

// qlockRecModel checks the recoverable variants under forced kills.
// Rendezvous roles guarantee real queue overlap on every schedule, so
// a kill at any ordinal lands on a non-trivial queue. Recoverable MCS
// must keep exactness and liveness; the plain MCS baseline and the
// planted unspliced variant must wedge (budget violation) within one
// kill, which is what the suite's expect=violation entries pin.
type qlockRecModel struct {
	params map[string]string
	cfg    qlock.Config
	prog   *asm.Program
}

func qlockRecModelBuild(p map[string]string) (Model, error) {
	v, err := qlockVariant(p)
	if err != nil {
		return nil, err
	}
	cpus, err := paramInt(p, "cpus")
	if err != nil {
		return nil, err
	}
	iters, err := paramInt(p, "iters")
	if err != nil {
		return nil, err
	}
	var workers []qlock.WorkerOpt
	switch cpus {
	case 2:
		workers = []qlock.WorkerOpt{qlock.HoldFor(1), qlock.WaitHeld(0)}
	case 3:
		// A holds until W has enqueued; D queues behind A; W queues
		// behind D — the three-party shape whose middle waiter dying
		// exercises splicing and successor scans.
		workers = []qlock.WorkerOpt{qlock.HoldFor(2), qlock.WaitHeld(0), qlock.WaitEnq(1)}
	default:
		return nil, fmt.Errorf("mcheck: qlock-rec wants cpus=2|3, got %d", cpus)
	}
	cfg := qlock.Config{
		Variant:   v,
		CPUs:      cpus,
		Iters:     iters,
		Workers:   workers,
		Quantum:   modelQuantum,
		MaxCycles: qlockBudget,
	}
	return &qlockRecModel{params: p, cfg: cfg, prog: qlock.Assembled(cfg)}, nil
}

func (m *qlockRecModel) Name() string              { return "qlock-rec" }
func (m *qlockRecModel) Params() map[string]string { return m.params }
func (m *qlockRecModel) Primary() Action           { return ActKill }
func (m *qlockRecModel) Pausable() bool            { return true }

func (m *qlockRecModel) New(ds []Decision, opt Options) (Instance, error) {
	r, err := qlock.NewWith(m.cfg, m.prog)
	if err != nil {
		return nil, err
	}
	if opt.Tracer != nil {
		r.Sys.AttachTracer(opt.Tracer)
	}
	in := &qlockInstance{run: r, opt: opt, vio: &violations{}, ds: ds, turnMax: qlockTurn}
	in.watch()
	return in, nil
}

// qlockInstance drives one qlock system under a decision list, in the
// smp-counter style: the ordinal space is scheduler steps across all
// CPUs, ActSwitch rotates the interleaving, ActKill kills the thread
// on the CPU holding it.
type qlockInstance struct {
	run     *qlock.Run
	opt     Options
	vio     *violations
	ds      []Decision
	di      int
	cur     int
	steps   uint64
	turn    uint64
	turnMax uint64

	fifo  bool  // check grant order == admission order (kill-free models)
	enq   []int // global tids in tail-swap order
	kills int   // kills actually applied
	done  bool
	ended bool
}

// watch installs the counter watchpoint and, on kill-free models, the
// qtail watchpoint that records the true admission order: with no kills
// and no TryAcquire the only non-zero stores to the tail are the enqueue
// swaps, one per passage.
func (in *qlockInstance) watch() {
	mem := in.run.Sys.Mem
	mem.Watch(in.run.Prog.Counter, func(old, new isa.Word) {
		if new != old+1 {
			in.vio.add("lost-update", "counter store %d->%d is not an increment", old, new)
		}
	})
	if in.fifo {
		mem.Watch(in.run.Prog.Qtail, func(old, new isa.Word) {
			if new != 0 {
				in.enq = append(in.enq, in.nodeOwner(uint32(new)))
			}
		})
	}
}

// Fork copies the paused system (under the run's own system config, the
// CPU count and coherence mode coming from the snapshot), the
// interleaving state and the admission log, then watches the copy.
func (in *qlockInstance) Fork(d Decision) Instance {
	c := *in
	c.ds = withDecision(in.ds, d)
	c.vio = in.vio.clone()
	c.enq = slices.Clone(in.enq)
	cfg := in.run.Cfg
	sys := forkSystem(in.run.Sys, smp.Config{Quantum: cfg.Quantum, MaxCycles: cfg.MaxCycles, Faults: cfg.Faults}, in.opt)
	c.run = &qlock.Run{Cfg: cfg, Sys: sys, Prog: in.run.Prog}
	c.watch()
	return &c
}

// nodeOwner maps a qnode address back to its worker's global tid.
func (in *qlockInstance) nodeOwner(addr uint32) int {
	cpu := int(addr-in.run.Prog.Qnodes) / 64
	return smp.GlobalID(cpu, 0)
}

func (in *qlockInstance) rotate() {
	sys := in.run.Sys
	n := len(sys.CPUs)
	for j := 1; j <= n; j++ {
		c := (in.cur + j) % n
		if !sys.Done(c) {
			in.cur = c
			break
		}
	}
	in.turn = 0
}

func (in *qlockInstance) step() {
	sys := in.run.Sys
	if sys.AllDone() {
		in.done = true
		return
	}
	if sys.Done(in.cur) || in.turn >= in.turnMax {
		in.rotate()
	}
	sys.StepCPU(in.cur)
	in.steps++
	in.turn++
	for in.di < len(in.ds) && in.ds[in.di].At == in.steps {
		switch in.ds[in.di].Act {
		case ActSwitch:
			in.rotate()
		case ActKill:
			if err := sys.KillThread(in.cur, 0); err == nil {
				in.kills++
			}
		}
		in.di++
	}
	if sys.AllDone() {
		in.done = true
	}
}

func (in *qlockInstance) RunTo(at uint64) bool {
	for !in.done && in.steps < at {
		in.step()
	}
	return in.done
}

func (in *qlockInstance) RunToEnd() {
	for !in.done {
		in.step()
	}
	if in.ended {
		return
	}
	in.ended = true
	sys := in.run.Sys
	for c := range sys.CPUs {
		err := sys.CPUVerdict(c)
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
	res, err := in.run.Collect()
	if err != nil {
		// One benign shape: a worker killed inside its critical
		// section after the counter increment but before its own
		// completion count leaves the counter exactly one ahead.
		if res == nil || res.Counter != res.Passages+1 || in.kills == 0 {
			in.vio.add("mutual-exclusion", "%v", err)
			return
		}
	}
	iters := uint64(in.run.Cfg.Iters)
	for c := range sys.CPUs {
		ts := sys.CPUs[c].Threads()
		exited := len(ts) > 0 && ts[0].State == kernel.StateDone
		if exited && res.Mine[c] != iters {
			in.vio.add("lost-passage", "surviving worker %d completed %d of %d passages", c, res.Mine[c], iters)
		}
	}
	if in.kills == 0 && res.Counter != uint64(in.run.Cfg.CPUs)*iters {
		in.vio.add("counter-exact", "counter = %d, want %d", res.Counter, uint64(in.run.Cfg.CPUs)*iters)
	}
	if in.fifo {
		if len(res.CSOrder) != len(in.enq) {
			in.vio.add("fifo", "%d grants vs %d admissions", len(res.CSOrder), len(in.enq))
			return
		}
		for i := range in.enq {
			if res.CSOrder[i] != in.enq[i] {
				in.vio.add("fifo", "grant %d went to tid %d, admission order says tid %d",
					i, res.CSOrder[i], in.enq[i])
				return
			}
		}
	}
}

func (in *qlockInstance) Cursor() uint64          { return in.steps }
func (in *qlockInstance) Violations() []Violation { return in.vio.list }
func (in *qlockInstance) StateHash() ([32]byte, bool) {
	return hashSMP(in.run.Sys, in.cur, in.turn), true
}
