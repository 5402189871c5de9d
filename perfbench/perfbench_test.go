package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/uniproc"
)

// smallWorkloads are the four workloads at test size. smp-server keeps
// its full cells, because its check is against the pinned rows; the
// crash-restart range keeps seed 2, which fails its audit today, so the
// failed count is compared too.
func smallWorkloads(t *testing.T) []workload {
	t.Helper()
	smpW, err := smpServer("..")
	if err != nil {
		t.Fatal(err)
	}
	crashW, err := crashRestart("..", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	return []workload{smpW, hybridWalk(1, 1), uniprocServer(2, 400), crashW}
}

// onePass measures one pass of w and fails the test on a harness error.
func onePass(t *testing.T, w workload, pr *probe) pass {
	t.Helper()
	rs, err := measure(w, 7, 0, pr)
	if err != nil {
		t.Fatal(err)
	}
	return rs.passes[0]
}

// TestProbesArePassive checks that tracing observes without disturbing:
// every simulated metric and count is identical across two untraced
// runs, across two traced runs, and between traced and untraced runs.
func TestProbesArePassive(t *testing.T) {
	for _, w := range smallWorkloads(t) {
		t.Run(w.name, func(t *testing.T) {
			plainA, plainB := onePass(t, w, nil), onePass(t, w, nil)
			tracedA, tracedB := onePass(t, w, newProbe()), onePass(t, w, newProbe())
			if d := diffSim(plainA.sim, plainB.sim); d != "" {
				t.Errorf("two untraced runs differ: %s", d)
			}
			if d := diffSim(tracedA.sim, tracedB.sim); d != "" {
				t.Errorf("two traced runs differ: %s", d)
			}
			for k, v := range plainA.sim {
				if tracedA.sim[k] != v {
					t.Errorf("%s: untraced %v, traced %v", k, v, tracedA.sim[k])
				}
			}
			for _, p := range []pass{plainB, tracedA, tracedB} {
				if p.attempted != plainA.attempted || p.failed != plainA.failed {
					t.Errorf("attempted/failed %d/%d, first run %d/%d", p.attempted, p.failed, plainA.attempted, plainA.failed)
				}
			}
			if len(plainA.sim) == 0 {
				t.Error("no simulated metrics or counts recorded")
			}
		})
	}
}

// TestWorkloadChecks pins what each workload's checks find today: the
// pinned smp-server cells and the small walk and server pass, and seed
// 2's double apply fails its campaign, as knownFailingSeeds expects.
func TestWorkloadChecks(t *testing.T) {
	want := map[string]int{"smp-server": 0, "mcheck-hybrid": 0, "uniproc-server": 0, "crash-restart": 1}
	for _, w := range smallWorkloads(t) {
		p := onePass(t, w, nil)
		if p.failed != want[w.name] || !p.ok {
			t.Errorf("%s: %d of %d operations failed, want %d; ok %v: %v", w.name, p.failed, p.attempted, want[w.name], p.ok, p.notes)
		}
	}
}

// TestUniprocFailuresCount checks that uniproc-server counts every
// request a broken run cannot vouch for, so that ok_frac falls below its
// bound and the pass is not correct.
func TestUniprocFailuresCount(t *testing.T) {
	const clients, requests = 2, 400
	for _, tc := range []struct {
		name       string
		breakPlans func(plans []uxServerPlan)
	}{
		// The second server finds the first one's files: creates fail,
		// reads and stats return the wrong size.
		{"wrong replies", func(plans []uxServerPlan) { plans[1].fs = plans[0].fs }},
		// The first server's processor runs out of cycles part way.
		{"run error", func(plans []uxServerPlan) {
			plans[0].proc = uniproc.New(uniproc.Config{Profile: arch.R3000(), Quantum: 20000, MaxCycles: 100000})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plans := []uxServerPlan{newUXPlan(7, 0, clients, requests), newUXPlan(7, 1, clients, requests)}
			tc.breakPlans(plans)
			p := runUXPlans(plans, nil)
			okFrac := 1 - float64(p.failed)/float64(p.attempted)
			if p.attempted != 2*clients*requests || okFrac >= 0.99 || p.ok {
				t.Errorf("attempted %d, failed %d (ok_frac %.4f), ok %v: %v", p.attempted, p.failed, okFrac, p.ok, p.notes)
			}
		})
	}
}

// TestCrashRestartKnownFailures checks that crash-restart is correct only
// when exactly the known failing seeds of its range fail.
func TestCrashRestartKnownFailures(t *testing.T) {
	defer func(known []uint64) { knownFailingSeeds = known }(knownFailingSeeds)
	knownFailingSeeds = nil
	w, err := crashRestart("..", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p := onePass(t, w, nil); p.failed != 1 || p.ok {
		t.Errorf("seed 2 fails unexpected: failed %d, ok %v", p.failed, p.ok)
	}
}

// TestWalkTimeAccounting checks that the traced walk's per-call times
// and the explorer's self time add up to the walk's wall time.
func TestWalkTimeAccounting(t *testing.T) {
	p := onePass(t, hybridWalk(1, 1), newProbe())
	sum := 0.0
	for _, k := range []string{"mcheck.new_s", "mcheck.replay_s", "mcheck.hash_s", "mcheck.finish_s", "mcheck.explorer_self_s"} {
		sum += p.host[k]
	}
	wall := p.samples[0].wall.Seconds()
	if sum > wall || wall-sum > 0.05*wall+1e-3 {
		t.Errorf("walk parts sum to %.6fs of a %.6fs walk", sum, wall)
	}
}

// TestReportsEveryMetric checks the printed metric sets: every
// end-to-end metric untraced, every per-layer metric traced, each with
// its unit, and a span file written.
func TestReportsEveryMetric(t *testing.T) {
	w, err := crashRestart("..", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	spans := filepath.Join(t.TempDir(), "spans.json")
	for _, tc := range []struct {
		trace bool
		table []metric
	}{{false, endToEnd}, {true, perLayer}} {
		r, err := benchmark(w, 1, 0, tc.trace, spans)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Correct || r.Failed == 0 {
			t.Errorf("trace=%v: correct %v with %d of %d failed, want correct with seed 2 failed", tc.trace, r.Correct, r.Failed, r.Attempted)
		}
		if len(r.Metrics) != len(tc.table) {
			t.Errorf("trace=%v: %d metrics, want %d", tc.trace, len(r.Metrics), len(tc.table))
		}
		for _, m := range tc.table {
			got, ok := r.Metrics[m.name]
			if !ok || got.Unit != m.unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
				t.Errorf("trace=%v: %s = %+v", tc.trace, m.name, got)
			}
		}
		if !tc.trace {
			for _, m := range endToEnd {
				if r.Metrics[m.name].Value == 0 {
					t.Errorf("end-to-end %s reads 0", m.name)
				}
			}
		}
	}
	if _, err := os.Stat(spans); err != nil {
		t.Errorf("no span file: %v", err)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json lists exactly the
// workloads the command accepts and the metrics it prints.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var seeds []string
	for _, s := range knownFailingSeeds {
		seeds = append(seeds, strconv.FormatUint(s, 10))
	}
	for _, w := range doc.Workloads {
		if _, err := newWorkload(w.Name, ".."); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
		if known := "seeds " + strings.Join(seeds, " ") + " fail"; w.Name == "crash-restart" && !strings.Contains(w.Why, known) {
			t.Errorf("crash-restart why %q does not say %q", w.Why, known)
		}
	}
	if len(doc.Workloads) != 4 {
		t.Errorf("%d workloads, want 4", len(doc.Workloads))
	}
	for _, c := range []struct {
		name   string
		listed []struct{ Name, Unit, Better string }
		table  []metric
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.listed) != len(c.table) {
			t.Errorf("%s lists %d metrics, the command prints %d", c.name, len(c.listed), len(c.table))
			continue
		}
		for i, m := range c.table {
			if l := c.listed[i]; l.Name != m.name || l.Unit != m.unit || l.Better != m.better {
				t.Errorf("%s[%d] = %+v, the command prints %s %s %s", c.name, i, l, m.name, m.unit, m.better)
			}
		}
	}
}
