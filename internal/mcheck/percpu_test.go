package mcheck

import "testing"

// The per-CPU data-plane models, which `go test -run Percpu
// ./internal/mcheck/` runs: the safe structures verified exhaustively at a
// stated bound, each planted defect caught, minimized, and replayed cold.

// The runtime-layer MPSC queue: any two forced preemptions at memop
// boundaries, drains overlapping pending pushes — traffic accounting
// stays exact because the detach is one restartable commit.
func TestPercpuQueueExhaustiveSafe(t *testing.T) {
	m := build(t, "percpu-queue", map[string]string{"drain": "safe"})
	e := &Explorer{Model: m, MaxDecisions: 2}
	rep, err := e.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("%v\nrepro: %s", rep, reproLine(rep))
	}
	t.Logf("%v", rep)
}

// The planted DrainUnsafe bug: one preemption between the consumer's
// head read and its head clear, with a producer push in the window,
// discards the pushed request. The checker must find it, shrink it, and
// the minimized schedule must replay.
func TestPercpuQueueCatchesUnsafeDrain(t *testing.T) {
	m := build(t, "percpu-queue", map[string]string{"drain": "unsafe"})
	e := &Explorer{Model: m, MaxDecisions: 1}
	rep, err := e.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	cex := rep.Counterexample
	if cex == nil {
		t.Fatalf("checker missed the non-atomic drain: %v", rep)
	}
	if got := cex.Violations[0].Kind; got != "lost-update" {
		t.Errorf("violation kind = %q, want lost-update", got)
	}
	vio, err := RunOnce(m, cex.Schedule.Decisions, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(vio) == 0 {
		t.Fatalf("minimized counterexample does not replay: %v", cex.Schedule.Decisions)
	}
	t.Logf("%v", rep)
}

// The registered guest free list survives any two forced preemptions: an
// interrupted pop restarts from its head load, so ownership stays unique
// and every node returns to the list.
func TestPercpuFreeListExhaustiveRAS(t *testing.T) {
	m := build(t, "percpu-freelist", map[string]string{"variant": "ras"})
	e := &Explorer{Model: m, MaxDecisions: 2}
	rep, err := e.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("%v\nrepro: %s", rep, reproLine(rep))
	}
	t.Logf("%v", rep)
}

// The bare variant runs the same instructions unregistered: a preemption
// between the head load and the commit resumes with a stale node and two
// workers stamp the same block — caught by the owner-word watchpoint at
// one decision.
func TestPercpuFreeListCatchesBarePop(t *testing.T) {
	m := build(t, "percpu-freelist", map[string]string{"variant": "bare"})
	e := &Explorer{Model: m, MaxDecisions: 1}
	rep, err := e.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	cex := rep.Counterexample
	if cex == nil {
		t.Fatalf("checker missed the unregistered pop: %v", rep)
	}
	if got := cex.Violations[0].Kind; got != "double-alloc" {
		t.Errorf("violation kind = %q, want double-alloc", got)
	}
	if n := len(cex.Schedule.Decisions); n > 1 {
		t.Errorf("counterexample has %d decisions, want <= 1", n)
	}
	vio, err := RunOnce(m, cex.Schedule.Decisions, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(vio) == 0 {
		t.Fatalf("minimized counterexample does not replay: %v", cex.Schedule.Decisions)
	}
	t.Logf("%v", rep)
}

// The per-CPU request ring under a forced preemption at every scheduler
// step: the worker treats an unpublished slot as end-of-batch, so served
// accounting stays exact no matter where the producer is interrupted.
func TestPercpuServerExhaustiveSafe(t *testing.T) {
	m := build(t, "percpu-server", map[string]string{"variant": "percpu"})
	e := &Explorer{Model: m, MaxDecisions: 1}
	rep, err := e.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("%v\nrepro: %s", rep, reproLine(rep))
	}
	t.Logf("%v", rep)
}

// The mutex baseline at 2 CPUs stays exact too — slower is not wronger.
func TestPercpuServerExhaustiveMutex(t *testing.T) {
	m := build(t, "percpu-server",
		map[string]string{"variant": "mutex", "cpus": "2", "iters": "1"})
	e := &Explorer{Model: m, MaxDecisions: 1}
	rep, err := e.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("%v\nrepro: %s", rep, reproLine(rep))
	}
	t.Logf("%v", rep)
}

// The planted racy drain (ISSUE 8's acceptance defect): the worker
// trusts the reserved tail, so a client preempted between its slot
// reservation and its payload store has the request consumed as empty.
// The checker must catch it within one forced preemption, shrink it, and
// the .sched-shaped schedule must replay cold.
func TestPercpuServerCatchesRacyDrain(t *testing.T) {
	m := build(t, "percpu-server", map[string]string{"variant": "racy"})
	e := &Explorer{Model: m, MaxDecisions: 1}
	rep, err := e.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	cex := rep.Counterexample
	if cex == nil {
		t.Fatalf("checker missed the racy drain: %v", rep)
	}
	if got := cex.Violations[0].Kind; got != "served-exact" {
		t.Errorf("violation kind = %q, want served-exact", got)
	}
	if n := len(cex.Schedule.Decisions); n != 1 {
		t.Errorf("counterexample has %d decisions, want 1", n)
	}
	vio, err := RunOnce(m, cex.Schedule.Decisions, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(vio) == 0 {
		t.Fatalf("minimized counterexample does not replay: %v", cex.Schedule.Decisions)
	}
	// Round-trip through the .sched serialization: what rascheck writes to
	// mcheck-out/ must rebuild the same failing run.
	text := cex.Schedule.Format()
	parsed, err := Parse(text)
	if err != nil {
		t.Fatalf("counterexample does not serialize: %v\n%s", err, text)
	}
	m2, err := BuildSchedule(parsed)
	if err != nil {
		t.Fatal(err)
	}
	vio2, err := RunOnce(m2, parsed.Decisions, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(vio2) == 0 {
		t.Fatalf("re-parsed .sched does not replay the violation:\n%s", text)
	}
	t.Logf("%v", rep)
}

// The three percpu suite entries with planted defects plus the four safe
// ones: the canned suite's view of this family must agree with the
// dedicated tests above (the suite is what `make check` and CI run).
func TestPercpuSuiteEntries(t *testing.T) {
	n := 0
	for _, ent := range Suite() {
		switch ent.Model {
		case "percpu-queue", "percpu-freelist", "percpu-server":
		default:
			continue
		}
		n++
		res := RunEntry(ent, Options{})
		if res.Err != nil {
			t.Errorf("%s %v: %v", ent.Model, ent.Over, res.Err)
			continue
		}
		if !res.OK {
			t.Errorf("%s %v: outcome does not match expectation %q: %v",
				ent.Model, ent.Over, ent.Expect, res.Report)
		}
		if res.Report.Truncated {
			t.Errorf("%s %v: exhaustive walk truncated", ent.Model, ent.Over)
		}
	}
	if n != 7 {
		t.Errorf("suite carries %d percpu entries, want 7", n)
	}
}
