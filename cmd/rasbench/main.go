// Command rasbench regenerates the paper's evaluation tables on the
// simulated uniprocessor, plus the extension studies built on them.
//
// Usage:
//
//	rasbench                     # all tables
//	rasbench -list               # every table with its title and BENCH file
//	rasbench -table 1            # just Table 1
//	rasbench -table 3 -scale 4   # Table 3 with 4x workloads
//	rasbench -iters 100000       # longer microbenchmark loops
//	rasbench -table 1 -json -    # machine-readable results on stdout
//	rasbench -table 2 -trace-out t2.json  # Perfetto trace of the runs
//	rasbench -pin                # rewrite every pinned BENCH_*.json (make pin)
//	rasbench -table server -cpuprofile cpu.out  # any run, profiled
//
// The tables are bench.Tables; `rasbench -list` names them. Seeded sweeps
// print one-line reproducers, replayable with -seed/-level (or, for the
// resilience campaigns, rasvm -demo resilience -plan).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"repro/internal/bench"
	"repro/internal/obs"
)

// benchOpts collects everything the CLI configures for one invocation.
type benchOpts struct {
	table        string
	iters, scale int
	seed         uint64
	level        float64
	timeout      uint64
	cpus         string // CPU counts for -table smp/server/rmr, e.g. "1,2,4"
	jsonOut      string // per-table results as JSON ("-" = stdout)
	traceOut     string // Chrome trace-event JSON of every run ("-" = stdout)
	metrics      string // event-derived metrics dump ("-" = stdout)
	cpuProf      string // Go CPU profile of the run
	list         bool   // print the table catalog and exit
	pin          bool   // rewrite every pinned BENCH file and exit
}

// defaults are the flag defaults: the configuration every pinned BENCH
// file records.
var defaults = benchOpts{table: "all", iters: 20000, scale: 1}

func main() {
	o := defaults
	var names []string
	for _, t := range bench.Tables {
		names = append(names, t.Name)
	}
	flag.StringVar(&o.table, "table", o.table, "which table to run: "+strings.Join(names, ",")+",all")
	flag.IntVar(&o.iters, "iters", o.iters, "microbenchmark loop iterations")
	flag.IntVar(&o.scale, "scale", o.scale, "table 3 workload multiplier")
	flag.Uint64Var(&o.seed, "seed", 0, "chaos master seed (0 = default); use with -level to replay a failure")
	flag.Float64Var(&o.level, "level", 0, "chaos fault intensity in (0,1]; 0 sweeps the default levels")
	flag.Uint64Var(&o.timeout, "timeout", 0, "cycle budget per run (0 = substrate default); a livelocked guest exits nonzero")
	flag.StringVar(&o.jsonOut, "json", "", "write per-table results (name, cycles, restarts, traps) as JSON (\"-\" = stdout)")
	flag.StringVar(&o.traceOut, "trace-out", "", "write a Chrome trace-event JSON file of every substrate run (\"-\" = stdout; load in Perfetto)")
	flag.StringVar(&o.metrics, "metrics", "", "write a plain-text metrics dump derived from the event stream (\"-\" = stdout)")
	flag.StringVar(&o.cpus, "cpus", "", "comma-separated CPU counts for -table smp (default \"1,2,4\"), -table server (default \"1,2,4,8\"), and -table rmr (default \"1,2,3,4,6,8\")")
	flag.StringVar(&o.cpuProf, "cpuprofile", "", "write a Go CPU profile of the run to this file")
	flag.BoolVar(&o.list, "list", false, "print every table name with its description and BENCH file, and exit")
	flag.BoolVar(&o.pin, "pin", false, "rewrite every pinned BENCH_*.json in the current directory from the default flags, and exit")
	flag.Parse()

	if o.pin && flag.NFlag() > 1 {
		fmt.Fprintln(os.Stderr, "rasbench: -pin takes no other flag: pinned files record the defaults")
		os.Exit(2)
	}
	if err := runOpts(o); err != nil {
		fmt.Fprintln(os.Stderr, "rasbench:", err)
		os.Exit(1)
	}
}

// tableResult is one -json record: the aggregate substrate counters behind
// one regenerated table, then the table's rows under a key equal to its
// name (see MarshalJSON).
type tableResult struct {
	Name        string `json:"name"`
	Runs        int    `json:"runs"`
	Cycles      uint64 `json:"cycles"`
	Restarts    uint64 `json:"restarts"`
	Preemptions uint64 `json:"preemptions"`
	Traps       uint64 `json:"traps"`
	rows        any
}

// MarshalJSON appends the rows to the header fields under the key
// r.Name, keeping the header's field order.
func (r tableResult) MarshalJSON() ([]byte, error) {
	type header tableResult // no MarshalJSON method, so no recursion
	out, err := json.Marshal(header(r))
	if err != nil {
		return nil, err
	}
	rows, err := json.Marshal(r.rows)
	if err != nil {
		return nil, fmt.Errorf("table %s rows: %w", r.Name, err)
	}
	key, _ := json.Marshal(r.Name) // a string always marshals
	out = append(append(out[:len(out)-1], ','), key...)
	out = append(append(append(out, ':'), rows...), '}')
	return out, nil
}

// parseCPUList turns "-cpus 1,2,4" into []int{1, 2, 4}.
func parseCPUList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -cpus entry %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

// tableOpts converts the flags every table reads, failing on a bad -cpus
// list before any table runs.
func (o benchOpts) tableOpts() (bench.Opts, error) {
	cpus, err := parseCPUList(o.cpus)
	return bench.Opts{Iters: o.iters, Scale: o.scale, Seed: o.seed,
		Level: o.level, Timeout: o.timeout, CPUs: cpus}, err
}

// lookup finds a registered table by name.
func lookup(name string) (bench.Table, bool) {
	for _, t := range bench.Tables {
		if t.Name == name {
			return t, true
		}
	}
	return bench.Table{}, false
}

func runOpts(o benchOpts) (err error) {
	opts, err := o.tableOpts()
	if err != nil {
		return err
	}
	stop, err := obs.StartCPUProfile(o.cpuProf)
	if err != nil {
		return err
	}
	defer func() {
		if serr := stop(); err == nil {
			err = serr
		}
	}()
	if o.list {
		tw := tabwriter.NewWriter(os.Stdout, 0, 8, 1, ' ', 0)
		for _, t := range bench.Tables {
			pin := t.Pin
			if pin == "" {
				pin = "-"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\n", t.Name, t.Title, pin)
		}
		return tw.Flush()
	}
	if o.pin {
		return pinAll(opts)
	}
	tables := bench.Tables
	if o.table != "all" {
		t, ok := lookup(o.table)
		if !ok {
			return fmt.Errorf("unknown table %q (rasbench -list names them)", o.table)
		}
		tables = []bench.Table{t}
	}

	// Observability: one bus receives every substrate run the harness
	// starts (rebased end-to-end by the bench package), feeding the
	// Chrome capture and the event-derived metrics.
	var capture *obs.Capture
	var pm *obs.PaperMetrics
	if o.traceOut != "" || o.metrics != "" {
		bus := obs.NewBus(0)
		if o.traceOut != "" {
			capture = &obs.Capture{}
			bus.Attach(capture)
		}
		if o.metrics != "" {
			pm = obs.NewPaperMetrics(nil)
			bus.Attach(pm)
		}
		bench.SetTraceSink(bus)
		defer bench.SetTraceSink(nil)
	}

	results, err := runTables(tables, opts, os.Stdout)
	if err != nil {
		return err
	}
	if o.jsonOut != "" {
		data, err := marshalResults(results)
		if err != nil {
			return err
		}
		if err := writeOut(o.jsonOut, data); err != nil {
			return err
		}
	}
	if capture != nil {
		data, err := obs.ChromeTrace(capture.Events())
		if err != nil {
			return err
		}
		if err := writeOut(o.traceOut, data); err != nil {
			return err
		}
	}
	if pm != nil {
		if err := writeOut(o.metrics, []byte(pm.Dump())); err != nil {
			return err
		}
	}
	return nil
}

// runTables runs each table in turn, printing its title and text to w,
// and returns one record per table with that table's counters and rows.
func runTables(tables []bench.Table, opts bench.Opts, w io.Writer) ([]tableResult, error) {
	var results []tableResult
	for _, t := range tables {
		fmt.Fprintf(w, "\n== %s ==\n\n", t.Title)
		var rs bench.RunStats
		bench.CollectStats(&rs)
		rows, text, err := t.Run(opts)
		bench.CollectStats(nil)
		if err != nil {
			return nil, err
		}
		fmt.Fprint(w, text)
		results = append(results, tableResult{Name: t.Name, Runs: rs.Runs,
			Cycles: rs.Cycles, Restarts: rs.Restarts,
			Preemptions: rs.Preemptions, Traps: rs.EmulTraps, rows: rows})
	}
	return results, nil
}

// marshalResults renders records as the -json output and the BENCH files.
func marshalResults(results []tableResult) ([]byte, error) {
	data, err := json.MarshalIndent(results, "", " ")
	return append(data, '\n'), err
}

// pinned regenerates the contents of one pinned BENCH file: the records
// of every table whose Pin is file, in registry order.
func pinned(file string, opts bench.Opts) ([]byte, error) {
	var group []bench.Table
	for _, t := range bench.Tables {
		if t.Pin == file {
			group = append(group, t)
		}
	}
	results, err := runTables(group, opts, io.Discard)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	return marshalResults(results)
}

// pinAll rewrites every pinned BENCH file in the current directory.
func pinAll(opts bench.Opts) error {
	done := map[string]bool{}
	for _, t := range bench.Tables {
		if t.Pin == "" || done[t.Pin] {
			continue
		}
		done[t.Pin] = true
		data, err := pinned(t.Pin, opts)
		if err != nil {
			return err
		}
		if err := os.WriteFile(t.Pin, data, 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", t.Pin)
	}
	return nil
}

// writeOut writes data to path, with "-" meaning stdout.
func writeOut(path string, data []byte) error {
	if path == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
