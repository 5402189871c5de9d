package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/asm"
	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/vmach/kernel"
	"repro/internal/vmach/smp"
)

// serverClients is the client threads per CPU, as in
// bench.DefaultServerConfig.
const serverClients = 4

// roundChunk is how many rounds run between two clock reads in a traced
// pass.
const roundChunk = 1 << 12

// serverCell is one guest server run: the four cells cover both request
// planes at a CC and a DSM machine size, with the request counts of
// bench.DefaultServerConfig.
type serverCell struct {
	variant guest.ServerVariant
	cpus    int
	mode    smp.Mode
	iters   int // requests per client
}

var serverCells = []serverCell{
	{guest.ServerPerCPU, 4, smp.CC, 8000},
	{guest.ServerMutex, 4, smp.CC, 500},
	{guest.ServerPerCPU, 8, smp.DSM, 8000},
	{guest.ServerMutex, 8, smp.DSM, 500},
}

func (c serverCell) String() string {
	return fmt.Sprintf("%s/%dcpu/%s", c.variant, c.cpus, c.mode)
}

func (c serverCell) requests() uint64 { return uint64(c.cpus * serverClients * c.iters) }

// pinnedServerRow is the part of a BENCH_server.json row a cell must
// reproduce exactly.
type pinnedServerRow struct {
	Impl, Mode                 string
	CPUs                       int
	Requests, WallCycles, RMRs uint64
	Restarts                   uint64
	CyclesPerReq, MeanBatch    float64
	P50, P95, P99              uint64
}

// readPinnedServer loads the guest rows of BENCH_server.json, keyed like
// serverCell.String.
func readPinnedServer(root string) (map[string]pinnedServerRow, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCH_server.json"))
	if err != nil {
		return nil, err
	}
	var tables []struct {
		Server []pinnedServerRow
	}
	if err := json.Unmarshal(raw, &tables); err != nil {
		return nil, fmt.Errorf("BENCH_server.json: %w", err)
	}
	rows := map[string]pinnedServerRow{}
	for _, t := range tables {
		for _, r := range t.Server {
			rows[fmt.Sprintf("%s/%dcpu/%s", r.Impl, r.CPUs, r.Mode)] = r
		}
	}
	for _, c := range serverCells {
		if _, ok := rows[c.String()]; !ok {
			return nil, fmt.Errorf("BENCH_server.json has no row for %s", c)
		}
	}
	return rows, nil
}

// smpServer is the guest request plane (guest.ServerProgram) on
// vmach/smp. Its cells take nothing from the seed: they are the pinned
// configuration, so every cell's simulated output must equal its
// BENCH_server.json row.
func smpServer(root string) (workload, error) {
	pinned, err := readPinnedServer(root)
	if err != nil {
		return workload{}, err
	}
	return workload{name: "smp-server", setup: func(uint64) (func(*probe) pass, error) {
		systems := make([]*smp.System, len(serverCells))
		progs := make([]*asm.Program, len(serverCells))
		for i, c := range serverCells {
			sys, prog, err := buildServerCell(c)
			if err != nil {
				return nil, err
			}
			systems[i], progs[i] = sys, prog
		}
		return func(pr *probe) pass {
			return runServerCells(systems, progs, pinned, pr)
		}, nil
	}}, nil
}

// buildServerCell assembles, loads, registers and spawns one cell, as
// bench.serverRun does.
func buildServerCell(c serverCell) (*smp.System, *asm.Program, error) {
	sys := smp.New(smp.Config{CPUs: c.cpus, Mode: c.mode, NewStrategy: kernel.MultiRegistrationStrategy})
	prog := guest.Assemble(guest.ServerProgram(c.variant, c.cpus))
	sys.Load(prog)
	ranges := guest.ServerLatSequenceRanges(prog)
	if c.variant != guest.ServerMutex {
		ranges = append(ranges, guest.ServerSequenceRanges(prog)...)
	}
	for _, k := range sys.CPUs {
		for _, r := range ranges {
			if err := k.RegisterSequence(0, r[0], r[1]); err != nil {
				return nil, nil, fmt.Errorf("%s: %w", c, err)
			}
		}
	}
	workerArg := serverClients
	if c.variant == guest.ServerMutex {
		workerArg = serverClients * c.cpus
	}
	worker, client := prog.MustSymbol("worker"), prog.MustSymbol("client")
	for cpu := 0; cpu < c.cpus; cpu++ {
		sys.Spawn(cpu, worker, guest.StackTop(smp.GlobalID(cpu, 0)), isa.Word(workerArg))
		for k := 0; k < serverClients; k++ {
			sys.Spawn(cpu, client, guest.StackTop(smp.GlobalID(cpu, k+1)), isa.Word(c.iters))
		}
	}
	return sys, prog, nil
}

// runServerCells steps every cell to completion and checks it. Traced,
// it times the rounds in chunks and every coherence access.
func runServerCells(systems []*smp.System, progs []*asm.Program, pinned map[string]pinnedServerRow, pr *probe) pass {
	p := pass{sim: map[string]float64{}, host: map[string]float64{}}
	lat := obs.NewHistogram(obs.ExpBuckets(1, guest.ServerLatBuckets))
	var cycles, requests, rounds, coherenceCalls uint64
	var roundTime, coherenceTime time.Duration
	start := readClock()
	for i, c := range serverCells {
		sys := systems[i]
		var hooks []*timedCoherence
		var cellID uint64
		var cellStart time.Time
		if pr != nil {
			for _, k := range sys.CPUs {
				h := &timedCoherence{next: k.M.Coherence}
				k.M.Coherence = h
				hooks = append(hooks, h)
			}
			cellID, cellStart = pr.begin()
		}
		n, err := driveRounds(sys, pr, cellID, uint64(i+1), &roundTime)
		if pr != nil {
			pr.end(cellID, 0, uint64(i+1), "smp-server.cell "+c.String(), cellStart)
			for _, h := range hooks {
				coherenceCalls += h.calls
				coherenceTime += h.spent
			}
		}
		rounds += n
		p.attempted++
		if msg := checkServerCell(c, sys, progs[i], pinned[c.String()], err, lat); msg != "" {
			p.failed++
			p.notes = append(p.notes, c.String()+": "+msg)
		}
		cycles += sys.TotalCycles()
		requests += c.requests()
		for _, k := range sys.CPUs {
			addKernelCounts(p.sim, k)
		}
	}
	p.measured = start.elapsed()
	p.samples = []hostTime{p.measured}
	p.ops = float64(requests)
	p.ok = p.failed == 0

	s := p.sim
	if s["kernel.suspensions"] > 0 {
		s["kernel.restart_ratio"] = s["kernel.restarts"] / s["kernel.suspensions"]
	}
	s["smp.rounds"] = float64(rounds)
	s["sim_cycles_per_op"] = float64(cycles) / float64(requests)
	s["sim_p99_cycles"] = float64(lat.P99())
	if pr != nil {
		s["smp.coherence_calls"] = float64(coherenceCalls)
		p.host["vmach.host_ns_per_instr"] = float64(roundTime.Nanoseconds()) / s["vmach.instructions"]
		p.host["smp.host_ns_per_round"] = float64(roundTime.Nanoseconds()) / float64(rounds)
		if coherenceCalls > 0 {
			p.host["smp.coherence_ns_per_call"] = float64(coherenceTime.Nanoseconds()) / float64(coherenceCalls)
		}
	}
	return p
}

// driveRounds steps sys round-robin to completion with StepRound, the
// step smp.System.RunRounds repeats, and returns the rounds it took.
// Traced, every roundChunk rounds are one span, added to *spent.
func driveRounds(sys *smp.System, pr *probe, parent, op uint64, spent *time.Duration) (uint64, error) {
	var rounds uint64
	for done := false; !done; {
		var id uint64
		var t0 time.Time
		if pr != nil {
			id, t0 = pr.begin()
		}
		for n := 0; n < roundChunk && !done; n++ {
			done = sys.StepRound()
			rounds++
		}
		if pr != nil {
			*spent += pr.end(id, parent, op, "smp.StepRound chunk", t0)
		}
	}
	return rounds, sys.Verdict()
}

// checkServerCell compares one finished cell with its pinned row and
// pools its latency log into lat. It returns what mismatched, or "".
func checkServerCell(c serverCell, sys *smp.System, prog *asm.Program, want pinnedServerRow, runErr error, lat *obs.Histogram) string {
	if runErr != nil {
		return runErr.Error()
	}
	requests := c.requests()
	served, batches := guest.ServerCounts(sys.Mem, prog, c.variant, c.cpus)
	if served != requests {
		return fmt.Sprintf("served %d of %d requests", served, requests)
	}
	cell := obs.NewHistogram(obs.ExpBuckets(1, guest.ServerLatBuckets))
	var observed uint64
	for b, n := range guest.ServerLatCounts(sys.Mem, prog, c.cpus) {
		cell.ObserveN(uint64(1)<<b, n)
		lat.ObserveN(uint64(1)<<b, n)
		observed += n
	}
	if observed != requests {
		return fmt.Sprintf("%d latency observations for %d requests", observed, requests)
	}
	got := pinnedServerRow{
		Impl: want.Impl, Mode: want.Mode, CPUs: want.CPUs,
		Requests:     requests,
		WallCycles:   sys.MaxCycles(),
		RMRs:         sys.TotalRMRs(),
		Restarts:     sys.TotalRestarts(),
		CyclesPerReq: float64(sys.TotalCycles()) / float64(requests),
		P50:          cell.P50(), P95: cell.P95(), P99: cell.P99(),
	}
	if batches > 0 {
		got.MeanBatch = float64(served) / float64(batches)
	}
	if got != want {
		return fmt.Sprintf("differs from BENCH_server.json: got %+v, pinned %+v", got, want)
	}
	return ""
}

// addKernelCounts adds one CPU's interpreter and kernel counters.
func addKernelCounts(s map[string]float64, k *kernel.Kernel) {
	m := k.M.Stats
	s["vmach.instructions"] += float64(m.Instructions)
	s["vmach.loads"] += float64(m.Loads)
	s["vmach.stores"] += float64(m.Stores)
	s["vmach.interlocked"] += float64(m.Interlocked)
	s["smp.rmrs"] += float64(m.RMRs)
	s["smp.coherence_cycles"] += float64(m.CoherenceCycles)
	s["kernel.switches"] += float64(k.Stats.Switches)
	s["kernel.suspensions"] += float64(k.Stats.Suspensions)
	s["kernel.restarts"] += float64(k.Stats.Restarts)
	s["kernel.emul_traps"] += float64(k.Stats.EmulTraps)
	s["kernel.syscalls"] += float64(k.Stats.Syscalls)
}
