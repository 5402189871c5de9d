package mcheck

import (
	"fmt"

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

// qlockModel builds both qlock models.
//
// qlock-queue checks MCS-family FIFO and exactness under forced CPU
// switches (no kills): the critical sections must be granted in exactly
// the order the tail swaps admitted the waiters.
//
// qlock-rec checks the recoverable variants under forced kills.
// Rendezvous roles guarantee real queue overlap on every schedule, so a
// kill at any ordinal lands on a non-trivial queue. Recoverable MCS must
// keep exactness and liveness; the plain MCS baseline and the planted
// unspliced variant must wedge (budget violation) within one kill, which
// is what the suite's expect=violation entries pin.
func qlockModel(name string, p map[string]string) (Model, error) {
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
		Quantum:   modelQuantum,
		MaxCycles: qlockBudget,
	}
	primary, fifo := ActSwitch, name == "qlock-queue"
	if fifo {
		cfg.Audit = true
	} else {
		primary = ActKill
		switch cpus {
		case 2:
			cfg.Workers = []qlock.WorkerOpt{qlock.HoldFor(1), qlock.WaitHeld(0)}
		case 3:
			// A holds until W has enqueued; D queues behind A; W queues
			// behind D — the three-party shape whose middle waiter dying
			// exercises splicing and successor scans.
			cfg.Workers = []qlock.WorkerOpt{qlock.HoldFor(2), qlock.WaitHeld(0), qlock.WaitEnq(1)}
		default:
			return nil, fmt.Errorf("mcheck: qlock-rec wants cpus=2|3, got %d", cpus)
		}
	}
	prog := qlock.Assembled(cfg)
	// A throwaway run checks cfg and resolves the program's symbols once.
	proto, err := qlock.NewWith(cfg, prog)
	if err != nil {
		return nil, err
	}
	info := proto.Prog
	// Forks take the CPU count and coherence mode from the snapshot.
	sysCfg := smp.Config{Quantum: cfg.Quantum, MaxCycles: cfg.MaxCycles, Faults: cfg.Faults}
	config := func([]Decision) smp.Config { return sysCfg }
	m := &pausableModel{modelID: modelID{name, p, primary}}
	m.start = func(in *instance) (stepper, error) {
		r, err := qlock.NewWith(cfg, prog)
		if err != nil {
			return nil, err
		}
		if in.opt.Tracer != nil {
			r.Sys.AttachTracer(in.opt.Tracer)
		}
		return &smpStepper{sys: r.Sys, config: config, turnMax: qlockTurn, kill: true}, nil
	}
	// The counter watchpoint and, on kill-free models, the qtail
	// watchpoint that records the true admission order: with no kills
	// and no TryAcquire the only non-zero stores to the tail are the
	// enqueue swaps, one per passage.
	m.watch = func(in *instance) {
		watchIncrements(in, info.Counter)
		if fifo {
			in.mem().Watch(info.Qtail, func(old, new isa.Word) {
				if new != 0 {
					// The qnode's worker, by address.
					in.order = append(in.order, smp.GlobalID(int(uint32(new)-info.Qnodes)/64, 0))
				}
			})
		}
	}
	m.finish = func(in *instance) {
		s := in.s.(*smpStepper)
		res, err := qlock.CollectFrom(cfg, s.sys, info)
		if err != nil {
			// One benign shape: a worker killed inside its critical
			// section after the counter increment but before its own
			// completion count leaves the counter exactly one ahead.
			if res == nil || res.Counter != res.Passages+1 || s.kills == 0 {
				in.vio.add("mutual-exclusion", "%v", err)
				return
			}
		}
		iters := uint64(cfg.Iters)
		for c := range s.sys.CPUs {
			ts := s.sys.CPUs[c].Threads()
			exited := len(ts) > 0 && ts[0].State == kernel.StateDone
			if exited && res.Mine[c] != iters {
				in.vio.add("lost-passage", "surviving worker %d completed %d of %d passages", c, res.Mine[c], iters)
			}
		}
		if s.kills == 0 && res.Counter != uint64(cfg.CPUs)*iters {
			in.vio.add("counter-exact", "counter = %d, want %d", res.Counter, uint64(cfg.CPUs)*iters)
		}
		if fifo {
			if len(res.CSOrder) != len(in.order) {
				in.vio.add("fifo", "%d grants vs %d admissions", len(res.CSOrder), len(in.order))
				return
			}
			for i := range in.order {
				if res.CSOrder[i] != in.order[i] {
					in.vio.add("fifo", "grant %d went to tid %d, admission order says tid %d",
						i, res.CSOrder[i], in.order[i])
					return
				}
			}
		}
	}
	return m, nil
}
