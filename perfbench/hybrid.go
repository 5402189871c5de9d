package main

import (
	"fmt"
	"time"

	"repro/internal/mcheck"
)

// hybridWalk is mcheck's exhaustive walk of smp-counter with the paper's
// §7 hybrid lock at 2 CPUs, the slowest entry of the canned suite. The
// walk has no input to draw from the seed. It must pass and cover at
// least minStates distinct states: a faster explorer may not lose
// coverage.
func hybridWalk(k, minStates int) workload {
	return workload{name: "mcheck-hybrid", setup: func(uint64) (func(*probe) pass, error) {
		m, err := mcheck.BuildModel("smp-counter", map[string]string{"lock": "hybrid", "cpus": "2", "iters": "1"})
		if err != nil {
			return nil, err
		}
		return func(pr *probe) pass { return runWalk(m, k, minStates, pr) }, nil
	}}
}

// runWalk explores the model and checks the report. Traced, the model is
// wrapped so that every Model.New and Instance call is a span under the
// walk's span; the explorer's self time is the walk's time not spent in
// those calls.
func runWalk(m mcheck.Model, k, minStates int, pr *probe) pass {
	e := &mcheck.Explorer{Model: m, MaxDecisions: k}
	var times modelTimes
	var walkID uint64
	var walkStart time.Time
	if pr != nil {
		walkID, walkStart = pr.begin()
		e.Model = &timedModel{Model: m, pr: pr, walk: walkID, t: &times}
	}
	start := readClock()
	rep, err := e.Exhaustive()
	var walk time.Duration
	if pr != nil {
		walk = pr.end(walkID, 0, walkID, "mcheck.Exhaustive", walkStart)
	}
	p := pass{attempted: 1, sim: map[string]float64{}, host: map[string]float64{}}
	switch {
	case err != nil:
		p.notes = append(p.notes, err.Error())
	case !rep.Passed():
		p.notes = append(p.notes, "walk did not pass: "+rep.String())
	case rep.States < minStates:
		p.notes = append(p.notes, fmt.Sprintf("%d states covered, want at least %d: %s", rep.States, minStates, rep))
	}
	p.measured = start.elapsed()
	p.samples = []hostTime{p.measured}
	p.ok = len(p.notes) == 0
	if !p.ok {
		p.failed = 1
		p.ops = 1
		return p
	}
	p.ops = float64(rep.Schedules)
	p.sim["states_covered"] = float64(rep.States)
	p.sim["mcheck.schedules"] = float64(rep.Schedules)
	p.sim["mcheck.pruned"] = float64(rep.Pruned)
	p.sim["mcheck.prune_ratio"] = float64(rep.Pruned) / float64(rep.Schedules)
	if pr != nil {
		p.sim["mcheck.steps_replayed"] = float64(times.stepsReplayed)
		inCalls := times.newT + times.replayT + times.hashT + times.finishT
		p.host["mcheck.new_s"] = times.newT.Seconds()
		p.host["mcheck.replay_s"] = times.replayT.Seconds()
		p.host["mcheck.hash_s"] = times.hashT.Seconds()
		p.host["mcheck.finish_s"] = times.finishT.Seconds()
		p.host["mcheck.explorer_self_s"] = (walk - inCalls).Seconds()
		if times.stepsReplayed > 0 {
			p.host["mcheck.host_ns_per_step"] = float64(times.replayT.Nanoseconds()) / float64(times.stepsReplayed)
		}
	}
	return p
}
