package mcheck

import (
	"fmt"
	"sort"
)

// Explorer drives one model through a bounded slice of its schedule
// space.
type Explorer struct {
	Model Model
	Opt   Options

	// MaxDecisions bounds how many forced decisions a schedule may carry
	// (default 2). The space grows as horizon^MaxDecisions; the bound is
	// the context-bounding argument for why small values already cover
	// the interesting interleavings.
	MaxDecisions int
	// Horizon caps the largest decision ordinal (0: the natural end of
	// each run).
	Horizon uint64
	// MaxSchedules is a safety cap on executed schedules (0: none).
	MaxSchedules int
}

// Report is the outcome of an exploration.
type Report struct {
	ModelName string
	Params    map[string]string
	Mode      string // "exhaustive" or "random"
	Seed      uint64 // random mode only
	// Bounds actually used.
	MaxDecisions int
	Horizon      uint64
	// Schedules executed, distinct normalized states seen, and prefixes
	// pruned as already-covered.
	Schedules int
	States    int
	Pruned    int
	// Truncated is set when MaxSchedules cut the walk short: the space
	// was NOT covered to the stated bound.
	Truncated bool
	// Counterexample is nil when every schedule satisfied the invariants.
	Counterexample *Counterexample
}

// Counterexample is a failing schedule, minimized.
type Counterexample struct {
	Schedule   *Schedule
	Violations []Violation
	// FoundLen is the decision count before shrinking.
	FoundLen int
}

// Passed reports whether the exploration covered its bounded space
// without a violation.
func (r *Report) Passed() bool { return r.Counterexample == nil && !r.Truncated }

func (r *Report) String() string {
	s := fmt.Sprintf("%s[%s] %s k<=%d horizon=%d: %d schedules, %d states, %d pruned",
		r.ModelName, paramString(r.Params), r.Mode, r.MaxDecisions, r.Horizon, r.Schedules, r.States, r.Pruned)
	if r.Truncated {
		s += " (TRUNCATED)"
	}
	if r.Counterexample != nil {
		s += fmt.Sprintf(" — VIOLATION %v (minimized to %d decisions from %d)",
			r.Counterexample.Violations[0], len(r.Counterexample.Schedule.Decisions), r.Counterexample.FoundLen)
	}
	return s
}

func paramString(p map[string]string) string {
	return (&Schedule{Params: p}).ParamString()
}

func (e *Explorer) defaults() {
	if e.MaxDecisions <= 0 {
		e.MaxDecisions = 2
	}
}

// newReport seeds a report with the exploration's bounds.
func (e *Explorer) newReport(mode string) *Report {
	return &Report{
		ModelName:    e.Model.Name(),
		Params:       e.Model.Params(),
		Mode:         mode,
		MaxDecisions: e.MaxDecisions,
		Horizon:      e.Horizon,
	}
}

// found minimizes a failing schedule into the report's counterexample.
func (e *Explorer) found(rep *Report, ds []Decision, vio []Violation) {
	sched := &Schedule{
		Model:     e.Model.Name(),
		Params:    e.Model.Params(),
		Decisions: append([]Decision(nil), ds...),
	}
	shrunk, svio := Shrink(e.Model, sched, e.Opt)
	if len(svio) == 0 {
		svio = vio
	}
	rep.Counterexample = &Counterexample{Schedule: shrunk, Violations: svio, FoundLen: len(ds)}
}

// Exhaustive walks every schedule of up to MaxDecisions forced decisions
// of the model's primary action, each placed at any event ordinal up to
// the horizon, depth-first, children in ascending ordinal order. On
// pausable models each prefix pauses right after its last decision and is
// pruned if its normalized state hash has been seen with at least as much
// remaining decision budget — two prefixes parking the substrate in the
// same state have the same futures, so the larger remaining budget
// subsumes the smaller.
//
// A pausable model's schedules are never replayed from Model.New. Before
// a prefix that survived pruning runs to its end, a decision-free fork of
// it is parked as its cursor. Its child with a decision at ordinal `at`
// is built by advancing the cursor to at-1, forking it with the decision,
// and running the fork to `at` — the same state a fresh instance reaches
// by replaying the child's decisions, since every substrate is
// deterministic and the cursor follows the prefix's own run until the
// decision fires. A pruned child thus costs one cursor step, one fork and
// one hash. The visit order and the prune rule are the replay walk's, so
// Schedules, States and Pruned are too. Models that cannot pause build
// every schedule with Model.New and run it to its end, without pruning.
//
// The walk stops at the first violation, which is then shrunk. A nil
// counterexample in the report means the bounded space is clean.
func (e *Explorer) Exhaustive() (*Report, error) {
	e.defaults()
	rep := e.newReport("exhaustive")
	seen := map[[32]byte]int{} // state hash -> most remaining budget seen
	pausable := e.Model.Pausable()
	// frame is one expanded schedule: its decisions, the ordinals next..hi
	// still to place one more decision at, and on pausable models the
	// cursor, parked at ordinal next-1.
	type frame struct {
		ds       []Decision
		cursor   Instance
		next, hi uint64
	}
	var stack []frame
	// finish runs a schedule that survived pruning to its end and, when
	// it is clean with budget left, pushes its frame.
	finish := func(ds []Decision, in Instance) []Violation {
		f := frame{ds: ds, next: 1}
		if len(ds) > 0 {
			f.next = ds[len(ds)-1].At + 1
		}
		expand := len(ds) < e.MaxDecisions
		if expand && pausable {
			f.cursor = in.Fork(Decision{})
		}
		in.RunToEnd()
		if vio := in.Violations(); len(vio) > 0 || !expand {
			return vio
		}
		f.hi = in.Cursor()
		if e.Horizon > 0 && e.Horizon < f.hi {
			f.hi = e.Horizon
		}
		stack = append(stack, f)
		return nil
	}
	// admit counts one more schedule, unless MaxSchedules is spent.
	admit := func() bool {
		if e.MaxSchedules > 0 && rep.Schedules >= e.MaxSchedules {
			rep.Truncated = true
			return false
		}
		rep.Schedules++
		return true
	}

	admit()
	root, err := e.Model.New(nil, e.Opt)
	if err != nil {
		return nil, err
	}
	if vio := finish(nil, root); len(vio) > 0 {
		e.found(rep, nil, vio)
		return rep, nil
	}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next > f.hi {
			stack = stack[:len(stack)-1]
			continue
		}
		at := f.next
		f.next++
		if !admit() {
			break
		}
		d := Decision{At: at, Act: e.Model.Primary()}
		ds := withDecision(f.ds, d)
		var in Instance
		if pausable {
			f.cursor.RunTo(at - 1)
			in = f.cursor.Fork(d)
			in.RunTo(at)
			if vio := in.Violations(); len(vio) > 0 {
				rep.States = len(seen)
				e.found(rep, ds, vio)
				return rep, nil
			}
			if h, ok := in.StateHash(); ok {
				remaining := e.MaxDecisions - len(ds)
				if r, dup := seen[h]; dup && r >= remaining {
					rep.Pruned++
					continue
				}
				seen[h] = remaining
			}
		} else if in, err = e.Model.New(ds, e.Opt); err != nil {
			return nil, err
		}
		if vio := finish(ds, in); len(vio) > 0 {
			rep.States = len(seen)
			e.found(rep, ds, vio)
			return rep, nil
		}
	}
	rep.States = len(seen)
	return rep, nil
}

// Random samples the schedule space: `schedules` runs, each carrying 1..
// MaxDecisions decisions at seeded-random ordinals. Every sample is a
// pure function of (seed, index), so a failure replays from the seed
// alone — and is still shrunk and serialized like any counterexample.
// Actions beyond the model's primary can be mixed in via acts (nil: the
// primary only).
func (e *Explorer) Random(seed uint64, schedules int, acts []Action) (*Report, error) {
	e.defaults()
	rep := e.newReport("random")
	rep.Seed = seed
	if len(acts) == 0 {
		acts = []Action{e.Model.Primary()}
	}
	// Probe the undisturbed run for its natural length (and check it).
	probe, err := e.Model.New(nil, e.Opt)
	if err != nil {
		return nil, err
	}
	probe.RunToEnd()
	rep.Schedules++
	if vio := probe.Violations(); len(vio) > 0 {
		e.found(rep, nil, vio)
		return rep, nil
	}
	span := probe.Cursor()
	if e.Horizon > 0 && e.Horizon < span {
		span = e.Horizon
	}
	if span == 0 {
		span = 1
	}
	for i := 0; i < schedules; i++ {
		r := newRand(seed, uint64(i))
		n := 1 + int(r.next()%uint64(e.MaxDecisions))
		ords := map[uint64]bool{}
		var ds []Decision
		for len(ds) < n {
			at := r.next()%span + 1
			if ords[at] {
				continue
			}
			ords[at] = true
			ds = append(ds, Decision{At: at, Act: acts[r.next()%uint64(len(acts))]})
		}
		sort.Slice(ds, func(a, b int) bool { return ds[a].At < ds[b].At })
		rep.Schedules++
		vio, err := RunOnce(e.Model, ds, e.Opt)
		if err != nil {
			return nil, err
		}
		if len(vio) > 0 {
			e.found(rep, ds, vio)
			return rep, nil
		}
	}
	return rep, nil
}
