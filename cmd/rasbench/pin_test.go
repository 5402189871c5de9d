package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPaperPin regenerates BENCH_paper.json (Tables 1-4, i860, lamport,
// holdups, ablation) in-process and requires the committed file to match
// byte for byte, so a drift in the paper's own numbers fails go test, not
// only the CI pin job.
func TestPaperPin(t *testing.T) {
	const file = "BENCH_paper.json"
	want, err := os.ReadFile(filepath.Join("..", "..", file))
	if err != nil {
		t.Fatal(err)
	}
	opts, err := defaults.tableOpts()
	if err != nil {
		t.Fatal(err)
	}
	got, err := pinned(file, opts)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) == string(want) {
		return
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	line := func(lines []string) string {
		if i < len(lines) {
			return lines[i]
		}
		return "<end of file>"
	}
	t.Fatalf("%s drifted at line %d:\n  committed:   %s\n  regenerated: %s\nif the change is intended, regenerate it with: make pin",
		file, i+1, line(w), line(g))
}
