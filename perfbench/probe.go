package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/chaos"
	"repro/internal/mcheck"
	"repro/internal/resilience"
	"repro/internal/vmach"
)

// maxSpans caps the spans kept in memory; later spans are counted but
// not kept, so a long walk cannot grow the trace without bound.
const maxSpans = 1 << 16

// span is one timed call across a layer boundary. op groups the spans of
// one operation (a cell, a walk, a server run, a campaign); parent is the
// span that made the call, 0 at the top.
type span struct {
	ID, Parent, Op uint64
	Name           string
	Start, End     time.Duration // since the probe was made
}

// probe records spans around the benchmark's calls into each layer. A nil
// *probe is an untraced run: workloads then call the layers directly,
// with no decorator in between.
type probe struct {
	origin time.Time
	spans  []span
	total  int
	nextID uint64
}

func newProbe() *probe { return &probe{origin: time.Now()} }

// begin opens a span and returns its id and start time.
func (p *probe) begin() (uint64, time.Time) {
	p.nextID++
	return p.nextID, time.Now()
}

// end closes the span begun at start and returns its duration.
func (p *probe) end(id, parent, op uint64, name string, start time.Time) time.Duration {
	now := time.Now()
	p.total++
	if len(p.spans) < maxSpans {
		p.spans = append(p.spans, span{ID: id, Parent: parent, Op: op, Name: name,
			Start: start.Sub(p.origin), End: now.Sub(p.origin)})
	}
	return now.Sub(start)
}

// write saves the kept spans as a Chrome trace-event file.
func (p *probe) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(p.spans))
	for i, s := range p.spans {
		events[i] = event{Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op}}
	}
	w := bufio.NewWriter(f)
	doc := map[string]any{"traceEvents": events, "otherData": map[string]any{
		"spans_recorded": p.total, "spans_kept": len(p.spans)}}
	if err := json.NewEncoder(w).Encode(doc); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// timedCoherence wraps one CPU's public coherence hook to count and time
// every priced data access.
type timedCoherence struct {
	next  vmach.CoherenceHook
	calls uint64
	spent time.Duration
}

func (c *timedCoherence) Access(addr uint32, write bool) (uint64, bool) {
	t := time.Now()
	extra, rmr := c.next.Access(addr, write)
	c.spent += time.Since(t)
	c.calls++
	return extra, rmr
}

// modelTimes accumulates the host time an exploration spent in each
// mcheck.Model and mcheck.Instance method, and the steps it replayed.
type modelTimes struct {
	newT, replayT, hashT, finishT time.Duration
	stepsReplayed                 uint64
}

// timedModel decorates an mcheck.Model so that every instance it builds
// is a timedInstance. Every call is a span under the walk's span.
type timedModel struct {
	mcheck.Model
	pr   *probe
	walk uint64
	t    *modelTimes
}

func (m *timedModel) New(ds []mcheck.Decision, opt mcheck.Options) (mcheck.Instance, error) {
	id, start := m.pr.begin()
	in, err := m.Model.New(ds, opt)
	m.t.newT += m.pr.end(id, m.walk, m.walk, "mcheck.New", start)
	if err != nil {
		return nil, err
	}
	return &timedInstance{Instance: in, m: m}, nil
}

type timedInstance struct {
	mcheck.Instance
	m *timedModel
}

func (in *timedInstance) RunTo(at uint64) bool {
	id, start := in.m.pr.begin()
	done := in.Instance.RunTo(at)
	in.m.t.replayT += in.m.pr.end(id, in.m.walk, in.m.walk, "mcheck.RunTo", start)
	in.m.t.stepsReplayed += in.Instance.Cursor()
	return done
}

func (in *timedInstance) StateHash() ([32]byte, bool) {
	id, start := in.m.pr.begin()
	h, ok := in.Instance.StateHash()
	in.m.t.hashT += in.m.pr.end(id, in.m.walk, in.m.walk, "mcheck.StateHash", start)
	return h, ok
}

func (in *timedInstance) RunToEnd() {
	id, start := in.m.pr.begin()
	in.Instance.RunToEnd()
	in.m.t.finishT += in.m.pr.end(id, in.m.walk, in.m.walk, "mcheck.RunToEnd", start)
}

// timedWorld decorates a resilience.World: each machine life and the
// final audit are spans under the campaign's span.
type timedWorld struct {
	resilience.World
	pr          *probe
	parent, op  uint64
	boot, check time.Duration
}

func (w *timedWorld) Boot(boot int, inj chaos.Injector, degraded bool) resilience.Report {
	id, start := w.pr.begin()
	rep := w.World.Boot(boot, inj, degraded)
	w.boot += w.pr.end(id, w.parent, w.op, "resilience.Boot", start)
	return rep
}

func (w *timedWorld) Check() error {
	id, start := w.pr.begin()
	err := w.World.Check()
	w.check += w.pr.end(id, w.parent, w.op, "resilience.Check", start)
	return err
}
