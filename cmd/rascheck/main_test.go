package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mcheck"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw strings.Builder
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestList(t *testing.T) {
	code, out, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"counter", "broken2store", "smp-counter", "uni-rme"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list missing %q:\n%s", want, out)
		}
	}
}

func TestCPUProfile(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	if code, out, errw := runCLI(t, "-model", "counter", "-max-decisions", "1", "-cpuprofile", cpu, "-memprofile", mem); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out, errw)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("no profile written to %s: %v", path, err)
		}
	}
	bad := filepath.Join(dir, "missing", "prof.out")
	for _, flag := range []string{"-cpuprofile", "-memprofile"} {
		if code, _, _ := runCLI(t, "-model", "counter", "-max-decisions", "1", flag, bad); code != 2 {
			t.Errorf("unwritable %s path: exit %d, want 2", flag, code)
		}
	}
}

func TestExplorePass(t *testing.T) {
	code, out, errw := runCLI(t,
		"-model", "counter", "-params", "mech=registered", "-out", t.TempDir())
	if code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out, errw)
	}
	if !strings.Contains(out, "exhaustive") {
		t.Errorf("no report line:\n%s", out)
	}
}

// A violation run writes the .sched artifact, prints the replay command,
// and — with -expect violation — exits 0; the artifact then replays.
func TestExploreViolationArtifactAndReplay(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "report.json")
	code, out, errw := runCLI(t,
		"-model", "broken2store", "-max-decisions", "1",
		"-expect", "violation", "-out", dir, "-json", jsonPath)
	if code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out, errw)
	}
	sched := filepath.Join(dir, "broken2store.sched")
	if _, err := os.Stat(sched); err != nil {
		t.Fatalf("no .sched artifact: %v\n%s", err, out)
	}
	if !strings.Contains(out, "replay: rascheck -replay") {
		t.Errorf("no replay command printed:\n%s", out)
	}
	if data, err := os.ReadFile(jsonPath); err != nil || !strings.Contains(string(data), "broken2store") {
		t.Errorf("JSON report missing or wrong: %v", err)
	}

	trace := filepath.Join(dir, "replay.json")
	code, out, errw = runCLI(t,
		"-replay", sched, "-expect", "violation", "-trace-out", trace)
	if code != 0 {
		t.Fatalf("replay exit %d\n%s%s", code, out, errw)
	}
	if !strings.Contains(out, "violation:") {
		t.Errorf("replay reproduced nothing:\n%s", out)
	}
	if data, err := os.ReadFile(trace); err != nil || !strings.Contains(string(data), "traceEvents") {
		t.Errorf("Chrome trace missing or malformed: %v", err)
	}
}

// An unexpected outcome exits 1 and prints the one-line repro.
func TestExploreUnexpectedOutcome(t *testing.T) {
	code, _, errw := runCLI(t,
		"-model", "broken2store", "-max-decisions", "1", "-out", t.TempDir())
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errw, "repro: rascheck -model broken2store") {
		t.Errorf("no repro line:\n%s", errw)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-model", "no-such-model"},
		{"-model", "counter", "-params", "nonsense"},
		{"-model", "counter", "-params", "mech=registered", "-mode", "psychic"},
		{"-replay", "/does/not/exist.sched"},
	} {
		if code, _, _ := runCLI(t, args...); code != 2 {
			t.Errorf("args %v: exit %d, want 2", args, code)
		}
	}
}

// suiteGolden pins every suite outcome: each entry's report line and,
// when it found a violation, the shrunk .sched it wrote. Regenerate with
// go test ./cmd/rascheck -run TestSuite -update.
const suiteGolden = "../../internal/mcheck/testdata/suite.golden"

var update = flag.Bool("update", false, "rewrite "+suiteGolden+" from this run")

// The full canned suite matches every expectation. This is the
// acceptance run: Figure-3/5 exhaustively clean, the hybrid lock clean
// at 2 CPUs, and the planted defects all caught — each with exactly the
// schedule counts and counterexample the golden file records.
func TestSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("suite re-runs the slow smp walks; covered by internal/mcheck in short mode")
	}
	code, out, errw := runCLI(t, "-suite", "-out", t.TempDir())
	if code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out, errw)
	}
	if !strings.Contains(out, "suite: all checks matched expectations") {
		t.Errorf("no final verdict:\n%s", out)
	}
	ok := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "ok  ") {
			ok++
		}
	}
	if want := len(mcheck.Suite()); ok != want {
		t.Errorf("%d suite entries ok, want %d", ok, want)
	}
	got := suiteOutcomes(t, out)
	if *update {
		if err := os.WriteFile(suiteGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(suiteGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("suite outcome differs from %s at line %d:\n got: %s\nwant: %s", suiteGolden, i+1, g, w)
			}
		}
	}
}

// suiteOutcomes renders -suite's output in the golden layout: per entry,
// its repro command, its report line, and the bytes of the .sched it
// saved, if any.
func suiteOutcomes(t *testing.T, out string) string {
	t.Helper()
	ents := mcheck.Suite()
	var b strings.Builder
	n := 0
	for _, line := range strings.Split(out, "\n") {
		body, ok := strings.CutPrefix(line, "     ")
		if !ok {
			continue
		}
		if path, ok := strings.CutPrefix(body, "counterexample: "); ok {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(data)
			continue
		}
		if n == len(ents) {
			t.Fatalf("more report lines than the %d suite entries:\n%s", len(ents), out)
		}
		fmt.Fprintf(&b, "== %s\n%s\n", mcheck.SuiteResult{Entry: ents[n]}.ReproCommand(), body)
		n++
	}
	if n != len(ents) {
		t.Fatalf("%d report lines for %d suite entries:\n%s", n, len(ents), out)
	}
	return b.String()
}
