// Command perfbench measures the repository on both of its clocks: host
// time (how long the interpreter, the model checker and the supervised
// campaigns take to run) and simulated cycles (the paper's quantity). It
// drives the layers from outside, through their public functions, on one
// of four workloads:
//
//	smp-server      guest request plane on vmach/smp, checked against BENCH_server.json
//	mcheck-hybrid   exhaustive K<=2 walk of smp-counter lock=hybrid
//	uniproc-server  uxserver file operations on uniproc green threads
//	crash-restart   resilience.Supervise campaigns over VMWorld, seeds 1-20
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload smp-server --seed 1 --seconds 15 --trace 0
//
// A run repeats set-up plus measured pass until --seconds have passed
// (at least one pass) and reports medians over passes. The end-to-end
// host times are process CPU time, which a shared host's steal time does
// not inflate, scaled part way by a reference loop run in the same
// process (see reference.go); raw CPU and wall time are per-layer
// metrics. With --trace 0 it prints the end-to-end metrics. With --trace
// 1 it first repeats the untraced measurement, then measures again with
// probes around each layer boundary, prints the per-layer metrics and
// writes the spans to .bench_build/spans/. The last line of standard
// output is one JSON object; failures and notes go to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// A run times at least minSetups set-ups, so that setup_s is a median
// even when one pass fills the run, and tops up with more until
// setupBudget of set-up time or maxSetups samples, so that a set-up of a
// fraction of a millisecond still has a steady median.
const (
	minSetups   = 5
	maxSetups   = 200
	setupBudget = 250 * time.Millisecond
)

// pass is one set-up plus one measured, checked pass of a workload.
type pass struct {
	measured hostTime   // the measured phase
	samples  []hostTime // norm_cpu_s samples: the pass, or each completed campaign
	ops      float64    // denominator of norm_cpu_us_per_op

	attempted, failed int
	notes             []string // what failed, for standard error

	// ok says the checks found exactly what the workload expects: no
	// failure, or on crash-restart exactly its known failing campaigns.
	ok bool

	// sim holds the pass's simulated metrics and counts; every pass of
	// one run must reproduce them exactly. host holds the host-time
	// per-layer metrics of a traced pass.
	sim, host map[string]float64

	goUse goUsage
}

// workload builds one pass. setup does everything up to the first
// simulated step and returns the measured phase; a set-up whose phase is
// never run must leave nothing behind.
type workload struct {
	name  string
	setup func(seed uint64) (func(pr *probe) pass, error)
}

func newWorkload(name, root string) (workload, error) {
	switch name {
	case "smp-server":
		return smpServer(root)
	case "mcheck-hybrid":
		return hybridWalk(2, 3036), nil
	case "uniproc-server":
		return uniprocServer(4, 30000), nil
	case "crash-restart":
		return crashRestart(root, 1, 20)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want smp-server, mcheck-hybrid, uniproc-server or crash-restart)", name)
}

// runSet is the passes, set-up samples and reference-loop samples of one
// measured phase.
type runSet struct {
	passes []pass
	setups []float64
	refs   []float64
}

// measure repeats set-up and pass until d has passed, then tops up the
// set-up samples (see minSetups). It samples the reference loop before
// the first pass, between passes and after the last one, each time after
// a collection, so that the loop neither runs alongside the workload's
// collector nor pays for its garbage.
func measure(w workload, seed uint64, d time.Duration, pr *probe) (rs runSet, err error) {
	ref, err := newReference()
	if err != nil {
		return rs, err
	}
	defer func() {
		if cerr := ref.close(); err == nil {
			err = cerr
		}
	}()
	var lastRef time.Time
	sampleRef := func() {
		runtime.GC()
		rs.refs = append(rs.refs, ref.sample())
		lastRef = time.Now()
	}
	timeSetup := func() (func(*probe) pass, error) {
		t0 := readClock()
		run, err := w.setup(seed)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		rs.setups = append(rs.setups, t0.elapsed().cpu.Seconds())
		return run, nil
	}
	for len(rs.refs) < minRefs/2 {
		sampleRef()
	}
	start := time.Now()
	for len(rs.passes) == 0 || time.Since(start) < d {
		if time.Since(lastRef) >= refEvery {
			sampleRef()
		}
		run, err := timeSetup()
		if err != nil {
			return rs, err
		}
		g0 := readGo()
		p := run(pr)
		p.goUse = readGo().since(g0)
		rs.passes = append(rs.passes, p)
	}
	for len(rs.refs) < minRefs || time.Since(lastRef) >= refEvery {
		sampleRef()
	}
	var spent float64
	for _, s := range rs.setups {
		spent += s
	}
	for len(rs.setups) < minSetups || (spent < setupBudget.Seconds() && len(rs.setups) < maxSetups) {
		if _, err := timeSetup(); err != nil {
			return rs, err
		}
		spent += rs.setups[len(rs.setups)-1]
	}
	return rs, nil
}

// tally counts attempted and failed operations and says whether every
// pass's checks found what the workload expects. A pass whose simulated
// metrics differ from the first pass's failed as a whole: the substrates
// are deterministic, so a difference is a defect.
func (rs runSet) tally() (attempted, failed int, correct bool, notes []string) {
	correct = true
	for i, p := range rs.passes {
		attempted += p.attempted
		if d := diffSim(rs.passes[0].sim, p.sim); d != "" {
			failed += p.attempted
			correct = false
			notes = append(notes, fmt.Sprintf("pass %d differs from pass 0: %s", i, d))
			continue
		}
		failed += p.failed
		correct = correct && p.ok
		if i == 0 || !p.ok {
			notes = append(notes, p.notes...)
		}
	}
	return attempted, failed, correct, notes
}

// cpuS is the median CPU time of the run's samples.
func (rs runSet) cpuS() float64 {
	var cpu []float64
	for _, p := range rs.passes {
		for _, s := range p.samples {
			cpu = append(cpu, s.cpu.Seconds())
		}
	}
	return median(cpu)
}

// endToEndMetrics reduces an untraced run to the end-to-end metrics. The
// host times are CPU times scaled half way, on a log scale, towards the
// reference loop's nominal speed (see reference.go).
func (rs runSet) endToEndMetrics() map[string]float64 {
	scale := math.Sqrt(refNominal.Seconds() / median(rs.refs))
	var perOp []float64
	for _, p := range rs.passes {
		perOp = append(perOp, p.measured.cpu.Seconds()*1e6/p.ops)
	}
	attempted, failed, _, _ := rs.tally()
	return map[string]float64{
		"norm_cpu_s":         rs.cpuS() * scale,
		"setup_s":            median(rs.setups) * scale,
		"norm_cpu_us_per_op": median(perOp) * scale,
		"ok_frac":            1 - float64(failed)/float64(attempted),
	}
}

// wallS is the median wall-clock time of the run's samples.
func (rs runSet) wallS() float64 {
	var wall []float64
	for _, p := range rs.passes {
		for _, s := range p.samples {
			wall = append(wall, s.wall.Seconds())
		}
	}
	return median(wall)
}

// perLayerMetrics combines the untraced phase (Go runtime figures and the
// tracing-overhead baseline) with the traced phase (everything else).
func perLayerMetrics(plain, traced runSet, pr *probe, peakRSS float64) map[string]float64 {
	m := map[string]float64{}
	for _, x := range perLayer {
		m[x.name] = 0
	}
	for k, v := range traced.passes[0].sim {
		m[k] = v
	}
	hosts := map[string][]float64{}
	for _, p := range traced.passes {
		for k, v := range p.host {
			hosts[k] = append(hosts[k], v)
		}
	}
	for k, vs := range hosts {
		m[k] = median(vs)
	}
	attempted, failed, _, _ := traced.tally()
	m["fail_frac"] = float64(failed) / float64(attempted)

	var alloc, gcs, gcFrac []float64
	for _, p := range plain.passes {
		alloc = append(alloc, p.goUse.allocMB)
		gcs = append(gcs, p.goUse.gcCycles)
		gcFrac = append(gcFrac, p.goUse.gcCPUFrac)
	}
	m["go.alloc_mb"] = median(alloc)
	m["go.gc_cycles"] = median(gcs)
	m["go.gc_cpu_frac"] = median(gcFrac)
	m["go.peak_rss_mb"] = peakRSS

	m["cpu_s"] = plain.cpuS()
	m["ref.cpu_s"] = median(plain.refs)
	m["wall_s"] = plain.wallS()
	m["trace.wall_s"] = traced.wallS()
	m["trace.overhead_s"] = m["trace.wall_s"] - m["wall_s"]
	m["trace.spans"] = float64(pr.total)
	return m
}

// diffSim names the first metric on which two passes disagree.
func diffSim(a, b map[string]float64) string {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if bv, ok := b[k]; !ok || bv != a[k] {
			return fmt.Sprintf("%s %v vs %v", k, a[k], b[k])
		}
	}
	if len(a) != len(b) {
		return fmt.Sprintf("%d metrics vs %d", len(a), len(b))
	}
	return ""
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// hostClock is a reading of both host clocks: wall time, and the CPU time
// of every thread of the process. With steal-time accounting, as on KVM,
// CPU time leaves out the time the hypervisor gave the CPU to another
// guest, which on a shared host can double a run's wall time.
type hostClock struct {
	wall time.Time
	cpu  time.Duration
}

// hostTime is an interval on both clocks.
type hostTime struct {
	wall, cpu time.Duration
}

func readClock() hostClock {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return hostClock{wall: time.Now(), cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
}

func (c hostClock) elapsed() hostTime {
	n := readClock()
	return hostTime{wall: n.wall.Sub(c.wall), cpu: n.cpu - c.cpu}
}

// goUsage is the Go runtime's work during one measured phase.
type goUsage struct {
	allocMB, gcCycles, gcCPUFrac float64
}

// goReading is a snapshot of the cumulative runtime counters.
type goReading struct {
	allocBytes, gcCycles, gcCPU, busyCPU float64
}

var goMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readGo() goReading {
	s := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return goReading{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCycles:   float64(s[1].Value.Uint64()),
		gcCPU:      s[2].Value.Float64(),
		busyCPU:    s[3].Value.Float64() - s[4].Value.Float64(),
	}
}

func (r goReading) since(before goReading) goUsage {
	u := goUsage{
		allocMB:  (r.allocBytes - before.allocBytes) / (1 << 20),
		gcCycles: r.gcCycles - before.gcCycles,
	}
	if busy := r.busyCPU - before.busyCPU; busy > 0 {
		u.gcCPUFrac = (r.gcCPU - before.gcCPU) / busy
	}
	return u
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the line the benchmark ends with. Correct says that every
// pass's checks found exactly what the workload expects (see pass.ok);
// Failed counts the operations whose check failed, and a harness error
// exits without a report.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// benchmark runs one workload as the command line asks and returns its
// report. It writes the spans of a traced run to spansPath.
func benchmark(w workload, seed uint64, d time.Duration, trace bool, spansPath string) (report, error) {
	plain, err := measure(w, seed, d, nil)
	if err != nil {
		return report{}, err
	}
	attempted, failed, correct, notes := plain.tally()
	values, table := plain.endToEndMetrics(), endToEnd
	if trace {
		rss := peakRSSMB()
		pr := newProbe()
		traced, err := measure(w, seed, d, pr)
		if err != nil {
			return report{}, err
		}
		a, f, ok, tracedNotes := traced.tally()
		attempted, failed, correct = attempted+a, failed+f, correct && ok
		if !ok {
			notes = append(notes, tracedNotes...)
		}
		values, table = perLayerMetrics(plain, traced, pr, rss), perLayer
		if err := pr.write(spansPath); err != nil {
			return report{}, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	for _, n := range notes {
		fmt.Fprintf(os.Stderr, "%s: %s\n", w.name, n)
	}
	r := report{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, x := range table {
		r.Metrics[x.name] = metricValue{Value: values[x.name], Unit: x.unit}
	}
	return r, nil
}

func main() {
	name := flag.String("workload", "", "workload: smp-server, mcheck-hybrid, uniproc-server or crash-restart")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 15, "length of the measured phase")
	trace := flag.Int("trace", 0, "1: per-layer metrics from a traced run")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	// The load comes from one goroutine; the runtime may use every CPU the
	// host has, and no more.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	w, err := newWorkload(*name, ".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	spans := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", *name, *seed))
	r, err := benchmark(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, spans)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
