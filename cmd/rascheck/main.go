// Command rascheck is the schedule-space model checker: it drives the
// deterministic substrates (vmach, vmach/smp, uniproc) through bounded
// exhaustive or seeded random interleaving exploration, checks invariants
// (mutual exclusion, lost update, deadlock, restart-livelock, RME repair)
// after every step, and on a violation shrinks the schedule to a minimal
// counterexample serialized as a .sched file that this tool — and
// `rasvm -replay-sched` — re-executes deterministically.
//
// Usage:
//
//	rascheck -list                             # available models
//	rascheck -suite [-out dir]                 # the canned verification suite
//	rascheck -model counter -params mech=none  # explore one model
//	rascheck -replay cex.sched [-trace-out t.json]
//	rascheck -suite -cpuprofile cpu.out         # any run, profiled
//	rascheck -suite -memprofile mem.out         # ... or its allocations
//
// Exit status: 0 when the outcome matches expectations (suite entries
// carry their own expectation; a plain exploration expects a pass), 1 on
// an unexpected outcome, 2 on usage or internal errors. Every failure
// prints the one-line command that reproduces it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/mcheck"
	"repro/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	list     bool
	suite    bool
	model    string
	params   string
	mode     string
	maxDec   int
	horizon  uint64
	maxSched int
	seed     uint64
	scheds   int
	replay   string
	expect   string
	outDir   string
	jsonOut  string
	traceOut string
	cpuProf  string
	memProf  string
}

func run(args []string, out, errw io.Writer) int {
	var c config
	fs := flag.NewFlagSet("rascheck", flag.ContinueOnError)
	fs.SetOutput(errw)
	fs.BoolVar(&c.list, "list", false, "list available models and exit")
	fs.BoolVar(&c.suite, "suite", false, "run the canned verification suite")
	fs.StringVar(&c.model, "model", "", "model to explore (see -list)")
	fs.StringVar(&c.params, "params", "", "comma-separated k=v model parameter overrides")
	fs.StringVar(&c.mode, "mode", "exhaustive", "exploration mode: exhaustive or random")
	fs.IntVar(&c.maxDec, "max-decisions", 2, "max forced decisions per schedule (the bound K)")
	fs.Uint64Var(&c.horizon, "horizon", 0, "cap on decision ordinals (0: natural run length)")
	fs.IntVar(&c.maxSched, "max-schedules", 0, "safety cap on executed schedules (0: none)")
	fs.Uint64Var(&c.seed, "seed", 1, "random mode: PRNG seed")
	fs.IntVar(&c.scheds, "schedules", 500, "random mode: schedules to sample")
	fs.StringVar(&c.replay, "replay", "", "replay a .sched counterexample file and exit")
	fs.StringVar(&c.expect, "expect", "pass", "expected outcome: pass or violation")
	fs.StringVar(&c.outDir, "out", "mcheck-out", "directory for .sched and JSON artifacts")
	fs.StringVar(&c.jsonOut, "json", "", "write the report as JSON to this file")
	fs.StringVar(&c.traceOut, "trace-out", "", "replay only: write a Chrome trace of the run")
	fs.StringVar(&c.cpuProf, "cpuprofile", "", "write a Go CPU profile of the run to this file")
	fs.StringVar(&c.memProf, "memprofile", "", "write a Go heap profile of the run (every allocation) to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	stop, err := obs.StartProfiles(c.cpuProf, c.memProf)
	if err != nil {
		fmt.Fprintln(errw, "rascheck:", err)
		return 2
	}
	defer func() {
		if err := stop(); err != nil {
			fmt.Fprintln(errw, "rascheck:", err)
		}
	}()
	switch {
	case c.list:
		return listModels(out)
	case c.replay != "":
		return replay(&c, out, errw)
	case c.suite:
		return runSuite(&c, out, errw)
	case c.model != "":
		return explore(&c, out, errw)
	}
	fmt.Fprintln(errw, "rascheck: nothing to do; use -list, -suite, -model or -replay")
	return 2
}

func listModels(out io.Writer) int {
	names := mcheck.Models()
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-14s %s\n", n, mcheck.ModelDoc(n))
		fmt.Fprintf(out, "%-14s defaults: %s\n", "", mcheck.ModelDefaults(n))
	}
	return 0
}

func parseParams(s string) (map[string]string, error) {
	if s == "" {
		return nil, nil
	}
	over := map[string]string{}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok || k == "" {
			return nil, fmt.Errorf("bad -params element %q (want k=v)", kv)
		}
		over[k] = v
	}
	return over, nil
}

// writeArtifacts saves the counterexample as <name>.sched (and the
// optional JSON report) and returns the .sched path.
func writeArtifacts(c *config, rep *mcheck.Report, name string) (string, error) {
	var schedPath string
	if rep.Counterexample != nil {
		if err := os.MkdirAll(c.outDir, 0o755); err != nil {
			return "", err
		}
		schedPath = filepath.Join(c.outDir, name+".sched")
		s := rep.Counterexample.Schedule
		s.Note = fmt.Sprintf("%v", rep.Counterexample.Violations[0])
		if err := s.WriteFile(schedPath); err != nil {
			return "", err
		}
	}
	if c.jsonOut != "" {
		if err := os.MkdirAll(filepath.Dir(c.jsonOut), 0o755); err != nil {
			return "", err
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return "", err
		}
		if err := os.WriteFile(c.jsonOut, append(data, '\n'), 0o644); err != nil {
			return "", err
		}
	}
	return schedPath, nil
}

func explore(c *config, out, errw io.Writer) int {
	over, err := parseParams(c.params)
	if err != nil {
		fmt.Fprintln(errw, "rascheck:", err)
		return 2
	}
	m, err := mcheck.BuildModel(c.model, over)
	if err != nil {
		fmt.Fprintln(errw, "rascheck:", err)
		return 2
	}
	e := &mcheck.Explorer{
		Model:        m,
		MaxDecisions: c.maxDec,
		Horizon:      c.horizon,
		MaxSchedules: c.maxSched,
	}
	var rep *mcheck.Report
	switch c.mode {
	case "exhaustive":
		rep, err = e.Exhaustive()
	case "random":
		rep, err = e.Random(c.seed, c.scheds, nil)
	default:
		fmt.Fprintf(errw, "rascheck: unknown -mode %q\n", c.mode)
		return 2
	}
	if err != nil {
		fmt.Fprintln(errw, "rascheck:", err)
		return 2
	}
	fmt.Fprintln(out, rep)
	schedPath, err := writeArtifacts(c, rep, rep.ModelName)
	if err != nil {
		fmt.Fprintln(errw, "rascheck:", err)
		return 2
	}
	if schedPath != "" {
		fmt.Fprintf(out, "counterexample: %s\n", schedPath)
		fmt.Fprintf(out, "replay: rascheck -replay %s\n", schedPath)
	}
	ok := rep.Passed()
	if c.expect == "violation" {
		ok = rep.Counterexample != nil
	}
	if !ok {
		fmt.Fprintf(errw, "rascheck: outcome does not match -expect %s\n", c.expect)
		fmt.Fprintf(errw, "repro: %s\n", reproCommand(c, rep))
		return 1
	}
	return 0
}

// reproCommand reconstructs the exact invocation for a failing run.
func reproCommand(c *config, rep *mcheck.Report) string {
	cmd := fmt.Sprintf("rascheck -model %s", rep.ModelName)
	if c.params != "" {
		cmd += " -params " + c.params
	}
	cmd += fmt.Sprintf(" -mode %s -max-decisions %d", rep.Mode, rep.MaxDecisions)
	if rep.Horizon > 0 {
		cmd += fmt.Sprintf(" -horizon %d", rep.Horizon)
	}
	if rep.Mode == "random" {
		cmd += fmt.Sprintf(" -seed %#x -schedules %d", rep.Seed, c.scheds)
	}
	if c.expect != "pass" {
		cmd += " -expect " + c.expect
	}
	return cmd
}

// suiteTally accumulates one model's share of the suite, for the
// per-model summary table printed after the run.
type suiteTally struct {
	entries    int
	schedules  int
	states     int
	pruned     int
	violations int
	wall       time.Duration
}

func runSuite(c *config, out, errw io.Writer) int {
	failures := 0
	tallies := map[string]*suiteTally{}
	var order []string
	for i, ent := range mcheck.Suite() {
		start := time.Now()
		res := mcheck.RunEntry(ent, mcheck.Options{})
		tl := tallies[ent.Model]
		if tl == nil {
			tl = &suiteTally{}
			tallies[ent.Model] = tl
			order = append(order, ent.Model)
		}
		tl.entries++
		tl.wall += time.Since(start)
		if res.Report != nil {
			tl.schedules += res.Report.Schedules
			tl.states += res.Report.States
			tl.pruned += res.Report.Pruned
			if res.Report.Counterexample != nil {
				tl.violations++
			}
		}
		status := "ok  "
		switch {
		case res.Err != nil:
			status = "ERR "
		case !res.OK:
			status = "FAIL"
		}
		fmt.Fprintf(out, "%s %-46s %s\n", status, res.ReproCommand(), ent.Why)
		if res.Report != nil {
			fmt.Fprintf(out, "     %v\n", res.Report)
		}
		if res.Err != nil || !res.OK {
			failures++
			fmt.Fprintf(errw, "rascheck: suite entry failed; repro: %s -expect %s\n",
				res.ReproCommand(), ent.Expect)
			continue
		}
		// Save every counterexample the suite produced, expected or not,
		// one file per entry: several entries check the same model.
		if res.Report != nil && res.Report.Counterexample != nil {
			cc := *c
			cc.jsonOut = ""
			name := fmt.Sprintf("%02d-%s", i+1, ent.Model)
			if path, err := writeArtifacts(&cc, res.Report, name); err == nil && path != "" {
				fmt.Fprintf(out, "     counterexample: %s\n", path)
			}
		}
	}
	// Per-model summary: how much schedule space each model's entries
	// cover and what it costs, so suite growth stays visible in CI logs.
	fmt.Fprintf(out, "\n%-16s %7s %10s %8s %8s %10s %10s %9s\n",
		"model", "entries", "schedules", "states", "pruned", "violations", "wall", "sched/s")
	var totEnt, totSched, totPruned int
	var totWall time.Duration
	for _, name := range order {
		tl := tallies[name]
		fmt.Fprintf(out, "%-16s %7d %10d %8d %8d %10d %10s %9.0f\n",
			name, tl.entries, tl.schedules, tl.states, tl.pruned, tl.violations,
			tl.wall.Round(time.Millisecond), perSecond(tl.schedules, tl.wall))
		totEnt += tl.entries
		totSched += tl.schedules
		totPruned += tl.pruned
		totWall += tl.wall
	}
	fmt.Fprintf(out, "%-16s %7d %10d %8s %8d %10s %10s %9.0f\n",
		"total", totEnt, totSched, "", totPruned, "", totWall.Round(time.Millisecond),
		perSecond(totSched, totWall))

	if failures > 0 {
		fmt.Fprintf(errw, "rascheck: %d suite entries failed\n", failures)
		return 1
	}
	fmt.Fprintln(out, "suite: all checks matched expectations")
	return 0
}

// perSecond is a throughput, 0 for a run too short to time.
func perSecond(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

func replay(c *config, out, errw io.Writer) int {
	s, err := mcheck.ReadFile(c.replay)
	if err != nil {
		fmt.Fprintln(errw, "rascheck:", err)
		return 2
	}
	m, err := mcheck.BuildSchedule(s)
	if err != nil {
		fmt.Fprintln(errw, "rascheck:", err)
		return 2
	}
	opt := mcheck.Options{}
	var capture *obs.Capture
	if c.traceOut != "" {
		capture = &obs.Capture{}
		opt.Tracer = capture
	}
	vio, err := mcheck.RunOnce(m, s.Decisions, opt)
	if err != nil {
		fmt.Fprintln(errw, "rascheck:", err)
		return 2
	}
	fmt.Fprintf(out, "replayed %s: model %s, %d decisions\n", c.replay, s.Model, len(s.Decisions))
	for _, v := range vio {
		fmt.Fprintf(out, "violation: %v\n", v)
	}
	if len(vio) == 0 {
		fmt.Fprintln(out, "no violations reproduced")
	}
	if capture != nil {
		data, err := obs.ChromeTrace(capture.Events())
		if err != nil {
			fmt.Fprintln(errw, "rascheck:", err)
			return 2
		}
		if err := os.WriteFile(c.traceOut, data, 0o644); err != nil {
			fmt.Fprintln(errw, "rascheck:", err)
			return 2
		}
		fmt.Fprintf(out, "trace: %s (%d events)\n", c.traceOut, capture.Len())
	}
	// A replayed counterexample is EXPECTED to violate: exit 0 when it
	// does, 1 when the defect did not reproduce.
	if c.expect == "pass" && len(vio) > 0 {
		return 0 // plain replay: reporting is the point, not judging
	}
	if c.expect == "violation" && len(vio) == 0 {
		fmt.Fprintf(errw, "rascheck: replay did not reproduce a violation\n")
		return 1
	}
	return 0
}
