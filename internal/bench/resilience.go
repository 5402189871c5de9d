package bench

import (
	"fmt"
	"strings"

	"repro/internal/chaos"
	"repro/internal/mcheck"
	"repro/internal/resilience"
)

// ResilienceConfig parametrizes the crash-restart supervision table
// (experiment E27): the seeded vmach 1000-crash campaign, the uniproc
// exactly-once server campaign, the forced crash-loop demotion cycle,
// and the exhaustive supervisor-in-the-loop model walk.
type ResilienceConfig struct {
	Seed uint64
	// Crashes is the planned crash-boot count of the vmach campaign.
	Crashes int
	// Workers and Iters shape the vmach resilient-server guest.
	Workers, Iters int
	// Clients and Requests shape the uniproc server campaign; its plan
	// schedules ServerCrashes crash boots.
	Clients, Requests, ServerCrashes int
	MaxCycles                        uint64
}

// DefaultResilienceConfig returns the configuration `rasbench -table
// resilience` runs and `make pin` records in BENCH_resilience.json.
func DefaultResilienceConfig() ResilienceConfig {
	return ResilienceConfig{Seed: 1, Crashes: 1000, Workers: 2, Iters: 700,
		Clients: 3, Requests: 40, ServerCrashes: 120}
}

// ResilienceRow is one campaign outcome.
type ResilienceRow struct {
	Scenario string
	Seed     uint64
	// Plan is the campaign's crash schedule, replayable verbatim with
	// `rasvm -demo resilience -plan '...'`.
	Plan string
	// Boots/Crashes/RecCrashes are machine lives consumed, lives ending
	// in an injected crash, and crashes that landed inside recovery.
	Boots, Crashes, RecCrashes int
	// Demotions and Degraded count crash-loop demotions and the clean
	// degraded (read-only) lives served while demoted.
	Demotions, Degraded int
	// Shed and Timeouts are the server-side refusals and client deadline
	// expiries (uniproc rows; 0 on the ISA substrate).
	Shed, Timeouts uint64
	// Avail is UpCycles/(UpCycles+BackoffTotal); RecP95 the 95th
	// percentile of completed recoveries in cycles.
	Avail   float64
	RecP95  uint64
	Outcome string
}

// vmachResilienceCampaign is the headline row: the resilient-server
// guest on the ISA machine, supervised through cfg.Crashes planned
// crash boots — mixed clean, volatile, and torn, landing everywhere
// from inside recovery to mid-workload — every reboot warm over the
// surviving NVM, with the exactly-once audit at the end.
func vmachResilienceCampaign(cfg ResilienceConfig) (ResilienceRow, error) {
	fail := func(format string, args ...any) (ResilienceRow, error) {
		return ResilienceRow{}, fmt.Errorf("vmach/crash-campaign: "+format+" (repro: %s)",
			append(args, tableRepro("resilience", cfg.Seed))...)
	}
	w := resilience.NewVMWorld(resilience.VMWorldConfig{
		Workers: cfg.Workers, Iters: cfg.Iters, MaxCycles: cfg.MaxCycles})
	span, err := w.CalibrateSpan()
	if err != nil {
		return fail("calibration: %v", err)
	}
	// Scatter the crashes over a window of 3x the per-crash fair share
	// of the clean run: recovery is ~a third of that, so boots make real
	// progress between crashes yet the workload is still unfinished when
	// the last planned crash lands and completes in the clean tail.
	window := 3*span/uint64(cfg.Crashes) + 1
	plan := &chaos.CrashPlan{Seed: cfg.Seed, Point: chaos.PointStep,
		Span: window, Crashes: cfg.Crashes, WClean: 1, WVolatile: 2, WTorn: 1}
	out, err := resilience.Supervise(w, resilience.Config{
		Boots:      plan.Boot,
		MaxBoots:   cfg.Crashes + 1024,
		CrashLoopK: 4,
		JitterSeed: cfg.Seed,
	})
	if err != nil {
		return fail("%v", err)
	}
	if !out.Completed {
		return fail("campaign did not complete: %v", out)
	}
	if out.Crashes < cfg.Crashes*9/10 {
		return fail("only %d of %d planned crashes landed — the span no longer bites", out.Crashes, cfg.Crashes)
	}
	if out.RecoveryCrashes == 0 {
		return fail("no crash landed inside recovery — the campaign no longer covers the reboot loop")
	}
	return ResilienceRow{Scenario: "vmach/crash-campaign", Seed: cfg.Seed,
		Plan: plan.String(), Boots: out.Boots, Crashes: out.Crashes,
		RecCrashes: out.RecoveryCrashes, Demotions: out.Demotions,
		Degraded: out.DegradedBoots, Avail: out.Availability(),
		RecP95:  out.RecoveryP95,
		Outcome: fmt.Sprintf("exactly-once, %d repairs", w.Repairs())}, nil
}

// uniprocServerCampaign runs the uxserver.ResilientServer under the
// supervisor: retrying clients with deadlines and capped backoff,
// admission control, crashes at seeded persist ordinals, dedup across
// reboots — the acked-implies-durable audit after every boot and exact
// exactly-once accounting at the end.
func uniprocServerCampaign(cfg ResilienceConfig) (ResilienceRow, error) {
	fail := func(format string, args ...any) (ResilienceRow, error) {
		return ResilienceRow{}, fmt.Errorf("uniproc/server-campaign: "+format+" (repro: %s)",
			append(args, tableRepro("resilience", cfg.Seed))...)
	}
	swc := resilience.ServerWorldConfig{Clients: cfg.Clients, Iters: cfg.Requests,
		Shards: 2, MaxCycles: cfg.MaxCycles, JitterSeed: cfg.Seed}
	// Calibrate the persist-ordinal span on a scratch world.
	cal := resilience.NewServerWorld(swc)
	rep := cal.Boot(0, nil, false)
	if rep.Err != nil {
		return fail("calibration: %v", rep.Err)
	}
	window := 2*rep.PersistOps/uint64(cfg.ServerCrashes) + 1
	plan := &chaos.CrashPlan{Seed: cfg.Seed, Point: chaos.PointPersist,
		Span: window, Crashes: cfg.ServerCrashes, WClean: 1, WVolatile: 2, WTorn: 1}
	w := resilience.NewServerWorld(swc)
	out, err := resilience.Supervise(w, resilience.Config{
		Boots:      plan.Boot,
		MaxBoots:   cfg.ServerCrashes + 256,
		JitterSeed: cfg.Seed,
	})
	if err != nil {
		return fail("%v", err)
	}
	if !out.Completed {
		return fail("campaign did not complete: %v", out)
	}
	st := w.Stats()
	return ResilienceRow{Scenario: "uniproc/server-campaign", Seed: cfg.Seed,
		Plan: plan.String(), Boots: out.Boots, Crashes: out.Crashes,
		RecCrashes: out.RecoveryCrashes, Demotions: out.Demotions,
		Degraded: out.DegradedBoots, Shed: st.Shed, Timeouts: st.Timeouts,
		Avail: out.Availability(), RecP95: out.RecoveryP95,
		Outcome: fmt.Sprintf("exactly-once, %d dedup hits", st.DupAcks+st.ReplaySkips)}, nil
}

// uniprocDegradedCycle forces the full availability-policy cycle: K
// consecutive crashes inside recovery (persist ordinal 1 is recovery's
// own counter flush) demote the server to read-only mode, the degraded
// boots serve reads and shed the probe mutation, hysteresis re-promotes,
// and the workload then completes exactly-once.
func uniprocDegradedCycle(cfg ResilienceConfig) (ResilienceRow, error) {
	fail := func(format string, args ...any) (ResilienceRow, error) {
		return ResilienceRow{}, fmt.Errorf("uniproc/degraded-cycle: "+format+" (repro: %s)",
			append(args, tableRepro("resilience", cfg.Seed))...)
	}
	const loopK = 3
	w := resilience.NewServerWorld(resilience.ServerWorldConfig{
		Clients: 2, Iters: 6, MaxCycles: cfg.MaxCycles, JitterSeed: cfg.Seed})
	out, err := resilience.Supervise(w, resilience.Config{
		Boots: func(boot int) chaos.Injector {
			if boot >= loopK {
				return nil
			}
			return chaos.OneShot{Point: chaos.PointPersist, N: 1,
				Action: chaos.Action{CrashVolatile: true}}
		},
		CrashLoopK: loopK, RepromoteAfter: 2, JitterSeed: cfg.Seed,
	})
	if err != nil {
		return fail("%v", err)
	}
	if out.Demotions != 1 {
		return fail("demotions = %d, want 1 (the forced crash loop must demote)", out.Demotions)
	}
	if out.DegradedBoots < 2 {
		return fail("degraded boots = %d, want >= 2 (hysteresis must hold before re-promotion)", out.DegradedBoots)
	}
	if !out.Completed {
		return fail("did not complete after re-promotion: %v", out)
	}
	st := w.Stats()
	if st.Shed == 0 {
		return fail("degraded boots shed nothing — the read-only probe is gone")
	}
	return ResilienceRow{Scenario: "uniproc/degraded-cycle", Seed: cfg.Seed,
		Plan:  fmt.Sprintf("%d crashes at persist op 1", loopK),
		Boots: out.Boots, Crashes: out.Crashes, RecCrashes: out.RecoveryCrashes,
		Demotions: out.Demotions, Degraded: out.DegradedBoots,
		Shed: st.Shed, Timeouts: st.Timeouts, Avail: out.Availability(),
		RecP95:  out.RecoveryP95,
		Outcome: "demoted, held, re-promoted, completed"}, nil
}

// TableResilience runs the crash-restart supervision study (E27):
//
//   - vmach crash campaign: the resilient-server guest supervised
//     through ~1000 seeded crashes (clean, volatile, torn; many inside
//     recovery), warm reboots over surviving NVM, exactly-once audit;
//   - uniproc server campaign: the retrying-client uxserver plane under
//     a seeded persist-ordinal crash plan, with deadlines, shedding, and
//     cross-reboot dedup;
//   - degraded cycle: a forced crash loop through demotion, read-only
//     service, and hysteresis-gated re-promotion;
//   - exactly-once walk: the model checker's exhaustive K=1 enumeration
//     of a supervised crash at EVERY global persist ordinal of the
//     campaign, volatile and torn, which must pass with zero violations.
//
// Any failure is returned as an error naming the seed that reproduces it.
func TableResilience(cfg ResilienceConfig) ([]ResilienceRow, error) {
	if cfg.Crashes <= 0 {
		cfg.Crashes = 1
	}
	if cfg.ServerCrashes <= 0 {
		cfg.ServerCrashes = 1
	}
	var rows []ResilienceRow

	row, err := vmachResilienceCampaign(cfg)
	if err != nil {
		return nil, err
	}
	rows = append(rows, row)

	row, err = uniprocServerCampaign(cfg)
	if err != nil {
		return nil, err
	}
	rows = append(rows, row)

	row, err = uniprocDegradedCycle(cfg)
	if err != nil {
		return nil, err
	}
	rows = append(rows, row)

	// Exhaustive supervisor-in-the-loop walk via the model checker.
	schedules := 0
	for _, kind := range []string{"volatile", "torn"} {
		m, err := mcheck.BuildModel("resilience", map[string]string{"kind": kind})
		if err != nil {
			return nil, err
		}
		e := &mcheck.Explorer{Model: m, MaxDecisions: 1}
		rep, err := e.Exhaustive()
		if err != nil {
			return nil, err
		}
		if !rep.Passed() {
			return nil, fmt.Errorf("mcheck/exactly-once (%s): %v (repro: %s)",
				kind, rep, tableRepro("resilience", cfg.Seed))
		}
		schedules += rep.Schedules
	}
	rows = append(rows, ResilienceRow{Scenario: "mcheck/exactly-once",
		Plan: "every global persist ordinal", Crashes: schedules - 2,
		Avail:   1,
		Outcome: "exhaustive K=1 x {volatile,torn}, zero violations"})
	return rows, nil
}

// FormatResilience renders the supervision table; each campaign row
// carries its one-line crash-plan reproducer.
func FormatResilience(rows []ResilienceRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %6s %8s %6s %6s %5s %6s %6s %7s %8s  %s\n",
		"Scenario", "Boots", "Crashes", "InRec", "Demote", "Degr", "Shed", "T/outs", "Avail", "RecP95", "Outcome")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %6d %8d %6d %6d %5d %6d %6d %7.4f %8d  %s\n",
			r.Scenario, r.Boots, r.Crashes, r.RecCrashes, r.Demotions, r.Degraded,
			r.Shed, r.Timeouts, r.Avail, r.RecP95, r.Outcome)
	}
	for _, r := range rows {
		if strings.HasPrefix(r.Plan, "crashplan:") {
			fmt.Fprintf(&b, "  %s: rasvm -demo resilience -plan '%s'\n", r.Scenario, r.Plan)
		}
	}
	return b.String()
}
