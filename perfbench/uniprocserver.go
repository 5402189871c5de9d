package main

import (
	"fmt"
	"time"

	"repro/internal/arch"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/cthreads"
	"repro/internal/memfs"
	"repro/internal/obs"
	"repro/internal/uniproc"
	"repro/internal/uxserver"
)

// uxShards is the request-plane width of both servers: worker threads of
// the single-queue server, shards of the per-CPU one.
const uxShards = 4

// File operations a client issues after creating its file. The seed draws
// each request from the mix bench.uxRun cycles through: one read, two
// appends and one stat in four.
const (
	uxRead = iota
	uxAppend
	uxStat
)

// uxServerPlan is one server run: which request plane, every client's
// operations, and the processor, package and file system it runs on.
type uxServerPlan struct {
	perCPU bool
	ops    [][]uint8
	proc   *uniproc.Processor
	pkg    *cthreads.Pkg
	fs     *memfs.FS
}

func (s uxServerPlan) String() string {
	if s.perCPU {
		return "ux-percpu"
	}
	return "ux-single"
}

// uniprocServer is the uxserver file-operation plane on uniproc green
// threads, single-queue Start and per-CPU StartPerCPU, each serving
// clients×requests requests. The seed draws the request mix and each
// processor's JitterSeed.
func uniprocServer(clients, requests int) workload {
	return workload{name: "uniproc-server", setup: func(seed uint64) (func(*probe) pass, error) {
		plans := []uxServerPlan{newUXPlan(seed, 0, clients, requests), newUXPlan(seed, 1, clients, requests)}
		return func(pr *probe) pass { return runUXPlans(plans, pr) }, nil
	}}
}

// newUXPlan draws plan i of a seed: the single-queue server for i = 0,
// the per-CPU one for i = 1. Each client creates its file, then issues
// requests-1 file operations.
func newUXPlan(seed uint64, i, clients, requests int) uxServerPlan {
	plan := uxServerPlan{perCPU: i == 1}
	for c := 0; c < clients; c++ {
		ops := make([]uint8, requests-1)
		for j := range ops {
			switch chaos.Derive(seed, 0x0F5, uint64(i), uint64(c), uint64(j)) % 4 {
			case 0:
				ops[j] = uxRead
			case 3:
				ops[j] = uxStat
			default:
				ops[j] = uxAppend
			}
		}
		plan.ops = append(plan.ops, ops)
	}
	plan.proc = uniproc.New(uniproc.Config{Profile: arch.R3000(), Quantum: 20000,
		JitterSeed: chaos.Derive(seed, 0x0F5, uint64(i)) | 1})
	plan.pkg = cthreads.New(core.NewRAS())
	plan.fs = memfs.New(plan.pkg)
	return plan
}

// requests is how many requests the plan's clients issue, creates
// included.
func (s uxServerPlan) requests() uint64 {
	var n uint64
	for _, ops := range s.ops {
		n += 1 + uint64(len(ops))
	}
	return n
}

// runUXPlans serves every plan and checks it.
func runUXPlans(plans []uxServerPlan, pr *probe) pass {
	p := pass{sim: map[string]float64{}, host: map[string]float64{}}
	passage := obs.NewHistogram(obs.ExpBuckets(64, 20))
	var cycles, memops, total uint64
	var runTime time.Duration
	start := readClock()
	for i, plan := range plans {
		t0 := time.Now()
		seen := passage.Count()
		srv, good, err := serveUX(plan, passage, pr, uint64(i+1))
		runTime += time.Since(t0)
		want := plan.requests()
		p.attempted += int(want)
		total += want
		if failed, msg := checkUX(srv, want, passage.Count()-seen, good, err); failed > 0 {
			p.failed += int(failed)
			p.notes = append(p.notes, plan.String()+": "+msg)
		}
		cycles += plan.proc.Clock()
		memops += plan.proc.MemOps()
		p.sim["uniproc.switches"] += float64(plan.proc.Stats.Switches)
		p.sim["uniproc.restarts"] += float64(plan.proc.Stats.Restarts)
		if qs := srv.QueueStats(); qs.Batches > 0 {
			p.sim["uxserver.mean_batch"] = float64(qs.Drained) / float64(qs.Batches)
		}
	}
	p.measured = start.elapsed()
	p.samples = []hostTime{p.measured}
	p.ops = float64(total)
	p.ok = p.failed == 0
	p.sim["uniproc.memops"] = float64(memops)
	p.sim["sim_cycles_per_op"] = float64(cycles) / float64(total)
	p.sim["sim_p99_cycles"] = float64(passage.P99())
	if pr != nil {
		p.host["uniproc.host_ns_per_memop"] = float64(runTime.Nanoseconds()) / float64(memops)
	}
	return p
}

// serveUX starts one server on proc and runs its clients to completion.
// Each client checks every reply against what it appended so far; good
// counts the requests that succeeded with the right answer. Starting
// the server forks its green threads, so it belongs to the measured
// phase: a set-up that never runs leaves no goroutine behind. Traced,
// the run and each request are spans.
func serveUX(plan uxServerPlan, passage *obs.Histogram, pr *probe, op uint64) (*uxserver.Server, uint64, error) {
	proc, pkg := plan.proc, plan.pkg
	var srv *uxserver.Server
	if plan.perCPU {
		srv = uxserver.StartPerCPU(proc, pkg, plan.fs, uxShards, 16)
	} else {
		srv = uxserver.Start(proc, pkg, plan.fs, uxShards)
	}
	srv.Passage = passage
	var runID uint64
	var runStart time.Time
	if pr != nil {
		runID, runStart = pr.begin()
	}
	// call times one request as a span under the server run.
	call := func(name string, f func()) {
		if pr == nil {
			f()
			return
		}
		id, t0 := pr.begin()
		f()
		pr.end(id, runID, op, name, t0)
	}
	var good uint64
	done := pkg.NewSemaphore(0)
	proc.Go("spawner", func(e *uniproc.Env) {
		for c, ops := range plan.ops {
			path := fmt.Sprintf("/c%d", c)
			e.Fork("client", func(e *uniproc.Env) {
				call("uxserver.Create", func() {
					if err := srv.Create(e, path); err == nil {
						good++
					}
				})
				appended := 0
				for _, o := range ops {
					switch o {
					case uxRead:
						call("uxserver.ReadFile", func() {
							if b, err := srv.ReadFile(e, path); err == nil && len(b) == appended {
								good++
							}
						})
					case uxAppend:
						call("uxserver.Append", func() {
							if err := srv.Append(e, path, []byte("x")); err == nil {
								good++
								appended++
							}
						})
					case uxStat:
						call("uxserver.Stat", func() {
							if dir, size, err := srv.Stat(e, path); err == nil && !dir && size == appended {
								good++
							}
						})
					}
				}
				done.V(e)
			})
		}
		for range plan.ops {
			done.P(e)
		}
		srv.Shutdown(e)
	})
	err := proc.Run()
	if pr != nil {
		pr.end(runID, 0, op, "uniproc.Run "+plan.String(), runStart)
	}
	return srv, good, err
}

// checkUX checks a finished server run of want requests: every request
// accepted, every passage observed, every reply right. It returns how
// many requests failed and what failed. A request that was not verified
// good failed; if the run ended in error or the server's counts disagree
// with the clients', the run cannot be trusted and every request failed.
func checkUX(srv *uxserver.Server, want, observed, good uint64, runErr error) (uint64, string) {
	switch {
	case runErr != nil:
		return want, runErr.Error()
	case srv.Requests != want:
		return want, fmt.Sprintf("accepted %d requests, want %d", srv.Requests, want)
	case observed != want:
		return want, fmt.Sprintf("%d passage observations for %d requests", observed, want)
	case good != want:
		return want - good, fmt.Sprintf("%d of %d requests failed or returned a wrong reply", want-good, want)
	}
	return 0, ""
}
