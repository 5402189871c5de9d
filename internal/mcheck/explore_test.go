package mcheck

import (
	"strings"
	"testing"
)

func build(t *testing.T, name string, over map[string]string) Model {
	t.Helper()
	m, err := BuildModel(name, over)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// reproLine is what a failing test prints: the copy-paste command that
// replays the exact exploration (satellite: one-line repro on failure).
func reproLine(rep *Report) string {
	cmd := "go run ./cmd/rascheck -model " + rep.ModelName
	if ps := paramString(rep.Params); ps != "" {
		cmd += " -params " + ps
	}
	cmd += " -mode " + rep.Mode
	if rep.Mode == "random" {
		cmd += " -seed " + hex(rep.Seed) + " -schedules 64"
	}
	return cmd
}

func hex(v uint64) string {
	const digits = "0123456789abcdef"
	if v == 0 {
		return "0x0"
	}
	var b [16]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = digits[v&15]
		v >>= 4
	}
	return "0x" + string(b[i:])
}

// The paper's Figure-3 sequence (registered TAS) survives a preemption at
// EVERY instruction boundary, alone and in pairs: the bounded exhaustive
// walk over 2 workers must find no violation. This is the acceptance
// criterion "rascheck exhaustively verifies mutual exclusion for the
// Figure-3 counter RAS (2 threads, preemption at every instruction)".
func TestExhaustiveFigure3Registered(t *testing.T) {
	e := &Explorer{Model: build(t, "counter", map[string]string{"mech": "registered"}), MaxDecisions: 2}
	rep, err := e.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("%v\nrepro: %s", rep, reproLine(rep))
	}
	if rep.Schedules < 100 {
		t.Errorf("only %d schedules explored — bound too tight to mean anything", rep.Schedules)
	}
	t.Logf("%v", rep)
}

// Same walk for the Figure-5 designated sequence.
func TestExhaustiveFigure5Designated(t *testing.T) {
	e := &Explorer{Model: build(t, "counter", map[string]string{"mech": "designated"}), MaxDecisions: 2}
	rep, err := e.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("%v\nrepro: %s", rep, reproLine(rep))
	}
	t.Logf("%v", rep)
}

// The unprotected control (plain TAS, no recovery) must be caught: there
// is an interleaving of two forced preemptions that breaches mutual
// exclusion, and the checker must find and shrink it.
func TestExhaustiveCatchesUnprotected(t *testing.T) {
	m := build(t, "counter", map[string]string{"mech": "none"})
	e := &Explorer{Model: m, MaxDecisions: 2}
	rep, err := e.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	cex := rep.Counterexample
	if cex == nil {
		t.Fatalf("checker missed the unprotected TAS: %v", rep)
	}
	if len(cex.Schedule.Decisions) == 0 || len(cex.Schedule.Decisions) > 2 {
		t.Errorf("counterexample has %d decisions, want 1..2", len(cex.Schedule.Decisions))
	}
	// The minimized schedule must still fail when replayed cold.
	vio, err := RunOnce(m, cex.Schedule.Decisions, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(vio) == 0 {
		t.Fatalf("minimized counterexample does not replay: %v", cex.Schedule.Decisions)
	}
	t.Logf("%v", rep)
}

// The deliberately broken two-store sequence: the verifier rejects it,
// the harness installs it anyway, and the checker must catch it with a
// counterexample of at most 6 steps (it shrinks to a single preemption
// between the two stores), which must replay from its .sched
// serialization. This is the second acceptance criterion.
func TestBrokenTwoStoreCaught(t *testing.T) {
	m := build(t, "broken2store", nil)
	e := &Explorer{Model: m, MaxDecisions: 1}
	rep, err := e.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	cex := rep.Counterexample
	if cex == nil {
		t.Fatalf("checker missed the two-store sequence: %v", rep)
	}
	if n := len(cex.Schedule.Decisions); n > 6 {
		t.Errorf("counterexample has %d decisions, want <= 6", n)
	}
	// Round-trip through the .sched serialization and replay.
	path := t.TempDir() + "/broken.sched"
	if err := cex.Schedule.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := BuildSchedule(back)
	if err != nil {
		t.Fatal(err)
	}
	vio, err := RunOnce(rm, back.Decisions, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(vio) == 0 {
		t.Fatalf("deserialized counterexample does not replay (repro: go run ./cmd/rascheck -replay %s)", path)
	}
	if !strings.Contains(vio[0].Kind, "counter") {
		t.Errorf("unexpected violation kind %q", vio[0].Kind)
	}
	t.Logf("%v", rep)
}

// The recoverable owner+epoch lock survives a kill at EVERY instruction
// boundary: dead-owner repair, audited by watchpoints, holds across the
// whole single-kill schedule space.
func TestExhaustiveRecoverableKills(t *testing.T) {
	e := &Explorer{Model: build(t, "recoverable", nil), MaxDecisions: 1}
	rep, err := e.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("%v\nrepro: %s", rep, reproLine(rep))
	}
	t.Logf("%v", rep)
}

// Random mode: seeded sampling must find the broken two-store violation
// (any sample that preempts between the stores fails), shrink it, and be
// exactly reproducible from the seed.
func TestRandomFindsAndReplays(t *testing.T) {
	m := build(t, "broken2store", nil)
	run := func() *Report {
		e := &Explorer{Model: m, MaxDecisions: 3}
		rep, err := e.Random(0xDECAF, 200, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Counterexample == nil {
		t.Fatalf("random exploration missed the two-store sequence: %v", a)
	}
	if b.Counterexample == nil {
		t.Fatal("second identical exploration disagrees")
	}
	if got, want := a.Counterexample.Schedule.ParamString(), b.Counterexample.Schedule.ParamString(); got != want {
		t.Errorf("replayed params differ: %q vs %q", got, want)
	}
	da, db := a.Counterexample.Schedule.Decisions, b.Counterexample.Schedule.Decisions
	if len(da) != len(db) {
		t.Fatalf("same seed, different counterexamples: %v vs %v", da, db)
	}
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("same seed, different counterexamples: %v vs %v", da, db)
		}
	}
	t.Logf("%v", a)
}

// Pruning must fire: two different prefixes frequently park the kernel in
// the same normalized state, and the walk gets cheaper for it.
func TestPruningFires(t *testing.T) {
	e := &Explorer{Model: build(t, "counter", map[string]string{"mech": "registered"}), MaxDecisions: 2}
	rep, err := e.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pruned == 0 {
		t.Errorf("no prefixes pruned in %d schedules — state hashing is not collapsing anything", rep.Schedules)
	}
	if rep.States == 0 {
		t.Error("no states recorded")
	}
}

// The MaxSchedules safety cap truncates the walk and says so.
func TestTruncation(t *testing.T) {
	e := &Explorer{Model: build(t, "counter", nil), MaxDecisions: 2, MaxSchedules: 5}
	rep, err := e.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Truncated || rep.Passed() {
		t.Errorf("cap of 5 did not truncate: %v", rep)
	}
}

// replayExhaustive is the exhaustive walk as it was before forking: every
// schedule is rebuilt with Model.New and replayed from ordinal 0, paused
// after its last decision to be hashed, and run to its end unless pruned.
// It is the oracle the fork walk is checked against.
func replayExhaustive(e *Explorer) (*Report, error) {
	e.defaults()
	rep := e.newReport("exhaustive")
	seen := map[[32]byte]int{}
	stack := [][]Decision{nil}
	for len(stack) > 0 {
		ds := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if e.MaxSchedules > 0 && rep.Schedules >= e.MaxSchedules {
			rep.Truncated = true
			break
		}
		rep.Schedules++
		in, err := e.Model.New(ds, e.Opt)
		if err != nil {
			return nil, err
		}
		if len(ds) > 0 && e.Model.Pausable() {
			in.RunTo(ds[len(ds)-1].At)
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
		}
		in.RunToEnd()
		if vio := in.Violations(); len(vio) > 0 {
			rep.States = len(seen)
			e.found(rep, ds, vio)
			return rep, nil
		}
		if len(ds) >= e.MaxDecisions {
			continue
		}
		var base uint64
		if len(ds) > 0 {
			base = ds[len(ds)-1].At
		}
		hi := in.Cursor()
		if e.Horizon > 0 && e.Horizon < hi {
			hi = e.Horizon
		}
		for at := hi; at > base; at-- {
			stack = append(stack, append(ds[:len(ds):len(ds)], Decision{At: at, Act: e.Model.Primary()}))
		}
	}
	rep.States = len(seen)
	return rep, nil
}

// The fork walk and the replay oracle agree on every pausable model —
// at its defaults and at every parameter set the suite checks, planted
// defects included — down to the counts, the truncation and the shrunk
// counterexample. The caps and horizons cut each walk short in different
// places, which the suite itself never does.
func TestForkWalkMatchesReplay(t *testing.T) {
	type params map[string]string
	cases := map[string]params{}
	add := func(name string, over params) {
		m, err := BuildModel(name, over)
		if err != nil {
			t.Fatal(err)
		}
		if m.Pausable() {
			cases[name+"["+paramString(m.Params())+"]"] = over
		}
	}
	for _, name := range Models() {
		add(name, nil)
	}
	for _, ent := range Suite() {
		add(ent.Model, ent.Over)
	}
	bounds := []struct {
		maxSchedules int
		horizon      uint64
	}{{40, 12}, {250, 90}}
	for key, over := range cases {
		name, _, _ := strings.Cut(key, "[")
		for k := 1; k <= 2; k++ {
			for _, b := range bounds {
				explorer := func() *Explorer {
					return &Explorer{Model: build(t, name, over), MaxDecisions: k,
						MaxSchedules: b.maxSchedules, Horizon: b.horizon}
				}
				got, err := explorer().Exhaustive()
				if err != nil {
					t.Fatal(err)
				}
				want, err := replayExhaustive(explorer())
				if err != nil {
					t.Fatal(err)
				}
				if g, w := reportOutcome(got), reportOutcome(want); g != w {
					t.Errorf("%s k=%d cap=%d horizon=%d:\n fork:   %s\n replay: %s",
						key, k, b.maxSchedules, b.horizon, g, w)
				}
			}
		}
	}
}

// reportOutcome renders everything a walk decides: its counts, whether it
// was cut short, and the shrunk counterexample with its violations.
func reportOutcome(r *Report) string {
	s := r.String()
	if cex := r.Counterexample; cex != nil {
		s += " " + string(cex.Schedule.Format())
		for _, v := range cex.Violations {
			s += "; " + v.String()
		}
	}
	return s
}
