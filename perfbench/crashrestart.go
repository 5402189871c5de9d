package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"repro/internal/chaos"
	"repro/internal/resilience"
)

// The campaign plan of bench.vmachResilienceCampaign (E27): a 2-worker
// x 700-iteration resilient-server guest supervised through 1000 planned
// crashes mixed clean:volatile:torn 1:2:1.
const (
	campaignWorkers = 2
	campaignIters   = 700
	campaignCrashes = 1000
)

// knownFailingSeeds are the campaigns of seeds 1-20 that fail their
// exactly-once audit today with a double apply (repro: go run
// ./cmd/rasbench -table resilience -seed 2); the crash-restart why in
// BENCHMARK.json lists the same seeds. A pass is correct only if exactly
// these seeds of its range fail, so a new failure turns the report's
// correct false, and so does a fix until it updates both lists.
var knownFailingSeeds = []uint64{2, 6, 8, 10, 13, 16, 19}

// campaign is one seed's world and crash plan, built and calibrated.
type campaign struct {
	seed  uint64
	world *resilience.VMWorld
	plan  *chaos.CrashPlan
}

// pinnedCampaign is the BENCH_resilience.json row the seed-1 campaign
// must reproduce.
type pinnedCampaign struct {
	Plan                                  string
	Boots, Crashes, RecCrashes, Demotions int
	Degraded                              int
	Avail                                 float64
	RecP95                                uint64
}

func readPinnedCampaign(root string) (pinnedCampaign, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCH_resilience.json"))
	if err != nil {
		return pinnedCampaign{}, err
	}
	var tables []struct {
		Resilience []struct {
			Scenario string
			Seed     uint64
			pinnedCampaign
		}
	}
	if err := json.Unmarshal(raw, &tables); err != nil {
		return pinnedCampaign{}, fmt.Errorf("BENCH_resilience.json: %w", err)
	}
	for _, t := range tables {
		for _, r := range t.Resilience {
			if r.Scenario == "vmach/crash-campaign" && r.Seed == 1 {
				return r.pinnedCampaign, nil
			}
		}
	}
	return pinnedCampaign{}, fmt.Errorf("BENCH_resilience.json has no seed-1 vmach/crash-campaign row")
}

// crashRestart runs one resilience.Supervise campaign over a fresh
// resilience.VMWorld for every seed in [first, last]. The range is fixed,
// not drawn from the workload seed: campaigns that fail the exactly-once
// audit today stay in it and count as failed operations. Seed 1 must
// also reproduce its BENCH_resilience.json row.
func crashRestart(root string, first, last uint64) (workload, error) {
	pinned, err := readPinnedCampaign(root)
	if err != nil {
		return workload{}, err
	}
	var expected []uint64
	for _, seed := range knownFailingSeeds {
		if seed >= first && seed <= last {
			expected = append(expected, seed)
		}
	}
	return workload{name: "crash-restart", setup: func(uint64) (func(*probe) pass, error) {
		var cs []campaign
		var span uint64
		for seed := first; seed <= last; seed++ {
			w := resilience.NewVMWorld(resilience.VMWorldConfig{Workers: campaignWorkers, Iters: campaignIters})
			if seed == first {
				// The clean run's length depends only on the world's
				// configuration, which every campaign shares.
				var err error
				if span, err = w.CalibrateSpan(); err != nil {
					return nil, fmt.Errorf("calibration: %w", err)
				}
			}
			// As bench.vmachResilienceCampaign: scatter the crashes over
			// three times each crash's fair share of the clean run.
			plan := &chaos.CrashPlan{Seed: seed, Point: chaos.PointStep,
				Span: 3*span/campaignCrashes + 1, Crashes: campaignCrashes, WClean: 1, WVolatile: 2, WTorn: 1}
			cs = append(cs, campaign{seed: seed, world: w, plan: plan})
		}
		return func(pr *probe) pass { return runCampaigns(cs, pinned, expected, pr) }, nil
	}}, nil
}

// runCampaigns supervises every campaign and checks its outcome against
// the seeds expected to fail. Traced, each campaign is a span with its
// machine lives and final audit as children.
func runCampaigns(cs []campaign, pinned pinnedCampaign, expected []uint64, pr *probe) pass {
	p := pass{sim: map[string]float64{}, host: map[string]float64{}}
	var boots, crashes, recCrashes int
	var steps uint64
	var recoveries []uint64
	var avail []float64
	var bootT, superviseT time.Duration
	var failing []uint64
	start := readClock()
	for _, c := range cs {
		var w resilience.World = c.world
		var tw *timedWorld
		var id uint64
		var t1 time.Time
		if pr != nil {
			id, t1 = pr.begin()
			tw = &timedWorld{World: c.world, pr: pr, parent: id, op: c.seed}
			w = tw
		}
		t0 := readClock()
		out, err := resilience.Supervise(w, resilience.Config{
			Boots:      c.plan.Boot,
			MaxBoots:   campaignCrashes + 1024,
			CrashLoopK: 4,
			JitterSeed: c.seed,
		})
		took := t0.elapsed()
		if pr != nil {
			self := pr.end(id, 0, c.seed, fmt.Sprintf("resilience.Supervise seed=%d", c.seed), t1) - tw.boot - tw.check
			bootT += tw.boot
			superviseT += self
		}
		p.attempted++
		boots += out.Boots
		crashes += out.Crashes
		recCrashes += out.RecoveryCrashes
		for _, r := range out.Reports {
			steps += r.Cycles
			if r.RecoveryCycles > 0 {
				recoveries = append(recoveries, r.RecoveryCycles)
			}
		}
		if msg := checkCampaign(c, out, err, pinned); msg != "" {
			p.failed++
			failing = append(failing, c.seed)
			p.notes = append(p.notes, fmt.Sprintf("seed %d: %s", c.seed, msg))
			continue
		}
		p.samples = append(p.samples, took)
		avail = append(avail, out.Availability())
	}
	p.measured = start.elapsed()
	p.ops = float64(boots)
	p.ok = slices.Equal(failing, expected)
	if !p.ok {
		p.notes = append(p.notes, fmt.Sprintf("failing seeds %v, known failing %v", failing, expected))
	}
	if len(failing) > 0 {
		p.notes = append(p.notes, fmt.Sprintf("%d of %d campaigns failed, seeds %v (repro: go run ./cmd/rasbench -table resilience -seed %d)",
			len(failing), len(cs), failing, failing[0]))
	}
	if len(p.samples) == 0 {
		// norm_cpu_s is the median completed campaign; with none completed,
		// fall back to the whole pass rather than report nothing.
		p.samples = []hostTime{p.measured}
	}

	s := p.sim
	s["resilience.boots"] = float64(boots)
	s["resilience.crashes"] = float64(crashes)
	s["resilience.recovery_crashes"] = float64(recCrashes)
	s["sim_availability"] = median(avail)
	if len(recoveries) > 0 {
		sort.Slice(recoveries, func(i, j int) bool { return recoveries[i] < recoveries[j] })
		s["resilience.recovery_p95_cycles"] = float64(recoveries[len(recoveries)*95/100])
	}
	if pr != nil && boots > 0 {
		p.host["resilience.boot_us"] = bootT.Seconds() * 1e6 / float64(boots)
		p.host["resilience.supervisor_self_us"] = superviseT.Seconds() * 1e6 / float64(boots)
		p.host["resilience.host_ns_per_step"] = float64(bootT.Nanoseconds()) / float64(steps)
	}
	return p
}

// checkCampaign checks one campaign: it completed and its final
// exactly-once audit passed (Supervise returns the audit's error), and
// seed 1 reproduces its pinned row. It returns what failed, or "".
// bench.vmachResilienceCampaign also asks that the plan bite (most
// crashes land, some inside recovery); that is a property of the plan,
// not of the program, and the pinned row covers it for seed 1.
func checkCampaign(c campaign, out resilience.Outcome, err error, pinned pinnedCampaign) string {
	switch {
	case err != nil:
		return err.Error()
	case !out.Completed:
		return "campaign did not complete: " + out.String()
	}
	if c.seed != 1 {
		return ""
	}
	got := pinnedCampaign{Plan: c.plan.String(), Boots: out.Boots, Crashes: out.Crashes,
		RecCrashes: out.RecoveryCrashes, Demotions: out.Demotions, Degraded: out.DegradedBoots,
		Avail: out.Availability(), RecP95: out.RecoveryP95}
	if got != pinned {
		return fmt.Sprintf("differs from BENCH_resilience.json: got %+v, pinned %+v", got, pinned)
	}
	return ""
}
