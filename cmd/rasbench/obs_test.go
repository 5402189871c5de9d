package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/obs"
)

func TestJSONResultsPerTable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.json")
	o := benchOpts{table: "2", iters: 500, scale: 1, jsonOut: path}
	if err := runOpts(o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var results []tableResult
	if err := json.Unmarshal(data, &results); err != nil {
		t.Fatalf("results not valid JSON: %v", err)
	}
	if len(results) != 1 || results[0].Name != "2" {
		t.Fatalf("results = %+v, want one record for table 2", results)
	}
	// The rows sit under a key equal to the table's name.
	var records []map[string]json.RawMessage
	if err := json.Unmarshal(data, &records); err != nil {
		t.Fatal(err)
	}
	var rows []map[string]any
	if err := json.Unmarshal(records[0]["2"], &rows); err != nil || len(rows) == 0 {
		t.Errorf("rows under key \"2\" = %s (%v), want a nonempty array", records[0]["2"], err)
	}
	r := results[0]
	if r.Runs == 0 || r.Cycles == 0 {
		t.Errorf("empty aggregate: %+v", r)
	}
	// Table 2 exercises the emulation rows: trap counts must be recorded.
	if r.Traps == 0 {
		t.Errorf("traps = 0, want nonzero for table 2's emulation runs: %+v", r)
	}
}

func TestTraceOutAcrossRuns(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.txt")
	o := benchOpts{table: "2", iters: 500, scale: 1,
		traceOut: tracePath, metrics: metricsPath}
	if err := runOpts(o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := obs.DecodeChromeTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	// The rebased multi-run stream must still satisfy the structural
	// invariants: monotone per-track timestamps, balanced slices.
	if _, err := obs.ValidateChrome(doc); err != nil {
		t.Fatalf("multi-run trace invalid: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
	md, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(md), "emul_traps_total") ||
		!strings.Contains(string(md), "dispatches_total") {
		t.Errorf("metrics dump incomplete:\n%s", md)
	}
}

func TestJSONToStdoutPath(t *testing.T) {
	// "-" routes to stdout; just verify the path does not error.
	if err := runOpts(benchOpts{table: "1", iters: 200, scale: 1, jsonOut: "-"}); err != nil {
		t.Fatal(err)
	}
}

func TestJSONRecordsCarryOwnRows(t *testing.T) {
	// Two row-carrying tables through the path -table all takes: each
	// record must hold its own rows and no earlier table's.
	var tables []bench.Table
	for _, name := range []string{"persist", "journal"} {
		tab, ok := lookup(name)
		if !ok {
			t.Fatalf("table %s not registered", name)
		}
		tables = append(tables, tab)
	}
	results, err := runTables(tables, bench.Opts{}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	data, err := marshalResults(results)
	if err != nil {
		t.Fatal(err)
	}
	var records []map[string]json.RawMessage
	if err := json.Unmarshal(data, &records); err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 {
		t.Fatalf("%d records, want 2", len(records))
	}
	if _, ok := records[0]["persist"]; !ok {
		t.Error("persist record has no persist rows")
	}
	if _, ok := records[1]["journal"]; !ok {
		t.Error("journal record has no journal rows")
	}
	if _, ok := records[1]["persist"]; ok {
		t.Error("journal record repeats the persist rows")
	}
}
