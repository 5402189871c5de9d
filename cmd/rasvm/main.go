// Command rasvm assembles and runs a guest program on the simulated
// uniprocessor, with a choice of processor profile and kernel recovery
// strategy.
//
// Usage:
//
//	rasvm [-arch r3000] [-strategy registration] [-quantum 10000] prog.s
//	rasvm -demo counter -strategy designated -workers 4 -iters 1000
//	rasvm -demo recoverable -kill-at 5000,9000       # orphan + repair
//	rasvm -demo persistent -crash-at 4000            # NVRAM: crash, reboot,
//	                                                 # recover from NVM alone
//	rasvm -demo journal -crash-at 300                # WAL: crash mid-txn,
//	                                                 # dump NVM, reboot, replay
//	rasvm -demo journal -log nofence -crash-at 300 -torn   # the planted bug
//	rasvm -demo counter -crash-at 8000 -checkpoint ck.bin
//	rasvm -restore ck.bin                            # replay the rest
//	rasvm -replay-sched cex.sched -trace-out t.json  # re-run a rascheck
//	                                                 # counterexample
//
// The -demo flag runs a built-in workload instead of a source file:
// "counter" is the shared-counter mutual exclusion workload; "recoverable"
// is the owner+epoch recoverable mutex, which survives -kill-at thread
// deaths by repairing the orphaned lock; "persistent" runs the
// crash-consistent variant on the two-tier NVRAM memory — with -crash-at
// the injected crash DISCARDS unflushed lines, and the same binary then
// reboots over the surviving NVM image, repairs the lock, and completes
// the workload; "journal" runs the logged two-word transaction guest
// (-log picks redo, undo, or the deliberately broken nofence) — with
// -crash-at the demo dumps the NVM image the crash left behind, decides
// from the surviving log record alone whether the in-flight transaction
// committed, reboots without reloading, and verifies the recovered state
// (-torn makes the crash a torn write that persists only a prefix of
// each in-flight line); "smp" runs the shared counter on
// a multi-CPU system (-cpus) under the §7 hybrid RAS+spinlock (-lock
// picks hybrid, spinlock, llsc, or the unsound ras-only control);
// "qlock" runs the queue-lock zoo (-lock adds mcs, rmcs, and the planted
// rmcs-unspliced) with RMR accounting in -mode cc or dsm. The
// final counter value and kernel statistics are printed, so the effect of
// each recovery strategy (including "none") is directly observable.
//
//	rasvm -demo smp -cpus 4                          # §7 hybrid lock
//	rasvm -demo smp -cpus 2 -lock ras-only           # loses updates
//	rasvm -demo server -cpus 4                       # per-CPU request plane
//	rasvm -demo server -cpus 2 -variant mutex        # global-queue baseline
//	rasvm -demo qlock -lock mcs -cpus 8              # MCS: O(1) RMR/passage
//	rasvm -demo qlock -lock rmcs -cpus 2 -kill-at 300  # dead-owner repair
//	rasvm -demo resilience -plan 'crashplan:seed=0x1,point=step,span=230,crashes=1000,mix=1:2:1'
//	                                                 # supervised crash-restart
//	                                                 # campaign (TableResilience repro)
//	rasvm -demo server -cpus 4 -cpuprofile cpu.out   # any run, profiled
//	rasvm -demo server -cpus 4 -memprofile mem.out   # ... or its allocations
//
// Fault and recovery flags: -kill-at injects thread kills at the given
// retired-instruction steps; -crash-at injects a whole-machine crash.
// -checkpoint writes a binary snapshot — at step -checkpoint-at, or where
// the crash struck — that -restore resumes and replays deterministically.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/chaos"
	"repro/internal/guest"
	"repro/internal/mcheck"
	"repro/internal/obs"
	"repro/internal/vmach"
	"repro/internal/vmach/kernel"
)

// options collects everything the CLI configures for one run.
type options struct {
	arch, strategy, checkAt string
	quantum                 uint64
	demo, mech              string
	workers, iters, trace   int
	timeout                 uint64 // cycle budget; 0 = kernel default
	watchdog                string // off, extend, abort
	maxRestarts             uint64
	killAt                  string // comma-separated retired-instruction steps
	crashAt                 uint64 // whole-machine crash step (0 = none)
	torn                    bool   // -crash-at is a torn-write crash (persist demos)
	logMode                 string // -demo journal: redo, undo, nofence
	checkpoint              string // snapshot file to write
	checkpointAt            uint64 // step to checkpoint at (0 = only at crash)
	restore                 string // snapshot file to resume from
	replaySched             string // mcheck .sched counterexample to re-execute
	traceOut                string // Chrome trace-event JSON destination ("-" = stdout)
	metrics                 string // metrics dump destination ("-" = stdout)
	profTop                 int    // top-N cycle profile report (0 = off)
	folded                  string // folded-stack profile destination ("-" = stdout)
	cpus                    int    // -demo smp/server: number of CPUs
	lock                    string // -demo smp: lock implementation
	variant                 string // -demo server: request-plane variant
	killCPU                 int    // -demo smp: CPU whose running thread -kill-at kills
	smpMode                 string // -demo qlock: RMR counting mode, cc or dsm
	plan                    string // -demo resilience: one-line crash plan
	cpuProf                 string // Go CPU profile of the run
	memProf                 string // Go heap profile of the run
	args                    []string
	setFlags                map[string]bool // flags the user set explicitly
}

// demos lists the built-in workloads -demo accepts.
var demos = []string{"counter", "recoverable", "persistent", "journal", "smp", "server", "qlock", "resilience"}

func main() {
	var o options
	flag.StringVar(&o.arch, "arch", "r3000", "processor profile (see -list)")
	flag.StringVar(&o.strategy, "strategy", "registration", "recovery strategy: none, registration, designated, userlevel")
	flag.StringVar(&o.checkAt, "check", "suspend", "PC check placement: suspend, resume")
	flag.Uint64Var(&o.quantum, "quantum", 10000, "timeslice in cycles")
	flag.StringVar(&o.demo, "demo", "", "built-in workload: counter")
	flag.StringVar(&o.mech, "mech", "registered", "demo mechanism: none, registered, designated, emulation, interlocked, lockbit, userlevel, lamport-a, lamport-b, taos-mutex")
	flag.IntVar(&o.workers, "workers", 4, "demo worker threads")
	flag.IntVar(&o.iters, "iters", 1000, "demo iterations per worker")
	list := flag.Bool("list", false, "list processor profiles and exit")
	flag.IntVar(&o.trace, "trace", 0, "print the last N kernel events (0 disables tracing)")
	flag.Uint64Var(&o.timeout, "timeout", 0, "cycle budget (0 = default); a livelocked guest exits nonzero with a diagnostic")
	flag.StringVar(&o.watchdog, "watchdog", "off", "restart-livelock watchdog: off, extend, abort")
	flag.Uint64Var(&o.maxRestarts, "maxrestarts", 0, "watchdog consecutive-restart threshold (0 = default 32)")
	flag.StringVar(&o.killAt, "kill-at", "", "kill the running thread at these retired-instruction steps (comma-separated)")
	flag.Uint64Var(&o.crashAt, "crash-at", 0, "inject a whole-machine crash at this step (0 = none)")
	flag.BoolVar(&o.torn, "torn", false, "make -crash-at a torn-write crash: pending lines persist only a word prefix (persistent/journal demos)")
	flag.StringVar(&o.logMode, "log", "redo", "-demo journal: logging discipline: redo, undo, nofence (planted bug)")
	flag.StringVar(&o.checkpoint, "checkpoint", "", "write a binary machine snapshot to this file (at -checkpoint-at, or where a crash struck)")
	flag.Uint64Var(&o.checkpointAt, "checkpoint-at", 0, "retired-instruction step to checkpoint at (0 = only at crash)")
	flag.StringVar(&o.restore, "restore", "", "resume from a snapshot file instead of loading a program")
	flag.StringVar(&o.replaySched, "replay-sched", "", "re-execute an mcheck .sched counterexample (rascheck output) and report its violations")
	flag.StringVar(&o.traceOut, "trace-out", "", "write a Chrome trace-event JSON file of the run (\"-\" = stdout; load in Perfetto)")
	flag.StringVar(&o.metrics, "metrics", "", "write a plain-text metrics dump derived from the event stream (\"-\" = stdout)")
	flag.IntVar(&o.profTop, "profile", 0, "print the top-N symbols of the cycle-attributed profile (0 disables)")
	flag.StringVar(&o.folded, "folded", "", "write the cycle profile as folded stacks for flamegraph tools (\"-\" = stdout)")
	flag.IntVar(&o.cpus, "cpus", 1, "-demo smp: number of CPUs")
	flag.StringVar(&o.lock, "lock", "hybrid", "-demo smp: lock implementation: hybrid, spinlock, llsc, ras-only")
	flag.StringVar(&o.variant, "variant", "percpu", "-demo server: request plane: percpu, mutex, racy")
	flag.IntVar(&o.killCPU, "kill-cpu", 0, "-demo smp: CPU whose running thread -kill-at kills")
	flag.StringVar(&o.smpMode, "mode", "cc", "-demo qlock: RMR counting mode: cc (cache-coherent) or dsm (distributed shared memory)")
	flag.StringVar(&o.plan, "plan", "", "-demo resilience: one-line crash plan (crashplan:seed=...,point=...,span=...,crashes=...,mix=c:v:t); empty derives a default campaign")
	flag.StringVar(&o.cpuProf, "cpuprofile", "", "write a Go CPU profile of the run to this file")
	flag.StringVar(&o.memProf, "memprofile", "", "write a Go heap profile of the run (every allocation) to this file")
	flag.Parse()
	o.args = flag.Args()
	o.setFlags = map[string]bool{}
	flag.Visit(func(f *flag.Flag) { o.setFlags[f.Name] = true })

	if *list {
		for _, n := range arch.Names() {
			fmt.Printf("%-8s %s\n", n, arch.ByName(n))
		}
		return
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "rasvm:", err)
		os.Exit(1)
	}
}

func run(o options) (err error) {
	stop, err := obs.StartProfiles(o.cpuProf, o.memProf)
	if err != nil {
		return err
	}
	defer func() {
		if serr := stop(); err == nil {
			err = serr
		}
	}()
	if o.replaySched != "" {
		return runReplaySched(o)
	}
	if o.demo == "smp" {
		return runSMP(o)
	}
	if o.demo == "server" {
		return runServerDemo(o)
	}
	if o.demo == "qlock" {
		return runQlockDemo(o)
	}
	if o.demo == "persistent" {
		return runPersistent(o)
	}
	if o.demo == "resilience" {
		return runResilience(o)
	}
	if o.demo == "journal" {
		return runJournal(o)
	}
	prof := arch.ByName(o.arch)
	if prof == nil {
		return fmt.Errorf("unknown architecture %q (try -list)", o.arch)
	}
	var strat kernel.Strategy
	switch o.strategy {
	case "none":
		strat = kernel.NoRecovery{}
	case "registration":
		strat = &kernel.Registration{}
	case "designated":
		strat = &kernel.Designated{}
	case "userlevel":
		strat = &kernel.UserLevel{}
	default:
		return fmt.Errorf("unknown strategy %q", o.strategy)
	}
	at := kernel.CheckAtSuspend
	if o.checkAt == "resume" {
		at = kernel.CheckAtResume
	} else if o.checkAt != "suspend" {
		return fmt.Errorf("unknown check placement %q", o.checkAt)
	}
	var wd chaos.Watchdog
	switch o.watchdog {
	case "off", "":
	case "extend":
		wd = chaos.Watchdog{Policy: chaos.WatchdogExtend, MaxRestarts: o.maxRestarts}
	case "abort":
		wd = chaos.Watchdog{Policy: chaos.WatchdogAbort, MaxRestarts: o.maxRestarts}
	default:
		return fmt.Errorf("unknown watchdog policy %q", o.watchdog)
	}

	faults, err := faultSchedule(o)
	if err != nil {
		return err
	}
	cfg := kernel.Config{Profile: prof, Strategy: strat, CheckAt: at,
		Quantum: o.quantum, MaxCycles: o.timeout, Watchdog: wd, Faults: faults}

	var k *kernel.Kernel
	var prog *asm.Program
	if o.restore != "" {
		raw, err := os.ReadFile(o.restore)
		if err != nil {
			return err
		}
		snap, err := kernel.DecodeSnapshot(raw)
		if err != nil {
			return err
		}
		if k, err = kernel.Restore(cfg, snap); err != nil {
			return err
		}
		fmt.Printf("restored:      %s (%d threads at step cursor %d)\n",
			o.restore, len(k.Threads()), snap.Steps)
	} else {
		var src string
		switch {
		case o.demo == "counter":
			m, err := mechByName(o.mech)
			if err != nil {
				return err
			}
			src = guest.MutexCounterProgram(m, o.workers, o.iters)
		case o.demo == "recoverable":
			src = guest.RecoverableCounterProgram(o.workers, o.iters)
		case o.demo != "":
			return fmt.Errorf("unknown demo %q (available: %s)", o.demo, strings.Join(demos, ", "))
		case len(o.args) == 1:
			raw, err := os.ReadFile(o.args[0])
			if err != nil {
				return err
			}
			src = string(raw)
		default:
			return fmt.Errorf("expected one source file, -demo, or -restore")
		}
		if prog, err = asm.Assemble(src); err != nil {
			return err
		}
		k = kernel.New(cfg)
		k.Load(prog)
		entry, ok := prog.SymbolAddr("main")
		if !ok {
			return fmt.Errorf("program has no main symbol")
		}
		k.Spawn(entry, guest.StackTop(0))
	}
	// Observability: one bus feeds the -trace ring tail, the -trace-out
	// Chrome capture, and the -metrics event-derived counters.
	var tracer *kernel.RingTracer
	var capture *obs.Capture
	var pm *obs.PaperMetrics
	if o.trace > 0 || o.traceOut != "" || o.metrics != "" {
		bus := obs.NewBus(o.trace)
		if o.trace > 0 {
			tracer = bus.Ring()
		}
		if o.traceOut != "" {
			capture = &obs.Capture{}
			bus.Attach(capture)
		}
		if o.metrics != "" {
			pm = obs.NewPaperMetrics(nil)
			bus.Attach(pm)
		}
		k.Tracer = bus
	}
	var cprof *obs.CycleProfiler
	if o.profTop > 0 || o.folded != "" {
		cprof = obs.NewCycleProfiler()
		k.AttachProfiler(cprof, prog)
	}

	var runErr error
	if o.checkpointAt > 0 {
		var finished bool
		if finished, runErr = k.RunSteps(o.checkpointAt); !finished {
			if err := writeCheckpoint(k, o.checkpoint, "at step"); err != nil {
				return err
			}
			runErr = k.Run()
		}
	} else {
		runErr = k.Run()
	}
	if errors.Is(runErr, kernel.ErrMachineCrash) && o.checkpoint != "" && o.checkpointAt == 0 {
		if err := writeCheckpoint(k, o.checkpoint, "at crash"); err != nil {
			return err
		}
	}

	fmt.Printf("profile:       %s\n", prof)
	fmt.Printf("strategy:      %s (check at %s)\n", strat.Name(), o.checkAt)
	fmt.Printf("instructions:  %d\n", k.M.Stats.Instructions)
	fmt.Printf("cycles:        %d (%.2f us)\n", k.M.Stats.Cycles, k.Micros())
	fmt.Printf("suspensions:   %d (preemptions %d, page faults %d)\n",
		k.Stats.Suspensions, k.Stats.Preemptions, k.Stats.PageFaults)
	fmt.Printf("restarts:      %d (check rejects %d)\n", k.Stats.Restarts, k.Stats.CheckRejects)
	fmt.Printf("emul traps:    %d, syscalls %d, switches %d\n",
		k.Stats.EmulTraps, k.Stats.Syscalls, k.Stats.Switches)
	if k.Stats.WatchdogExtends > 0 || k.Stats.WatchdogAborts > 0 {
		fmt.Printf("watchdog:      %d extensions, %d aborts\n",
			k.Stats.WatchdogExtends, k.Stats.WatchdogAborts)
	}
	if k.Stats.Kills > 0 {
		fmt.Printf("kills:         %d\n", k.Stats.Kills)
	}
	if prog != nil && o.demo == "counter" {
		got := k.M.Mem.Peek(prog.MustSymbol("counter"))
		want := uint32(o.workers * o.iters)
		status := "CORRECT"
		if got != want {
			status = "LOST UPDATES"
		}
		fmt.Printf("counter:       %d / %d  [%s]\n", got, want, status)
	}
	if prog != nil && o.demo == "recoverable" {
		lock := k.M.Mem.Peek(prog.MustSymbol("lock"))
		fmt.Printf("counter:       %d (max %d; killed threads stop counting)\n",
			k.M.Mem.Peek(prog.MustSymbol("counter")), o.workers*o.iters)
		fmt.Printf("lock word:     %#x (owner %d, epoch %d), repairs %d\n",
			lock, int32(lock&0xFFFF)-1, lock>>16, k.M.Mem.Peek(prog.MustSymbol("repairs")))
	}
	if len(k.Console) > 0 {
		fmt.Printf("console:       %v\n", k.Console)
	}
	if tracer != nil {
		fmt.Printf("\nlast %d of %d kernel events:\n%s", len(tracer.Events()), tracer.Total(), tracer)
	}
	if capture != nil {
		data, err := obs.ChromeTrace(capture.Events())
		if err != nil {
			return err
		}
		if err := writeOut(o.traceOut, data); err != nil {
			return err
		}
		if o.traceOut != "-" {
			fmt.Printf("trace:         %s (%d events; load in Perfetto)\n", o.traceOut, capture.Len())
		}
	}
	if pm != nil {
		if err := writeOut(o.metrics, []byte(pm.Dump())); err != nil {
			return err
		}
	}
	if cprof != nil && o.profTop > 0 {
		fmt.Printf("\ncycle profile (top %d):\n%s", o.profTop, cprof.Report(o.profTop))
	}
	if cprof != nil && o.folded != "" {
		if err := writeOut(o.folded, []byte(cprof.Folded())); err != nil {
			return err
		}
	}
	if errors.Is(runErr, kernel.ErrLivelock) || errors.Is(runErr, kernel.ErrBudget) {
		// A livelocked or overrunning guest: name each thread's last PC and
		// restart count so the offending sequence is identifiable.
		fmt.Printf("\nguest did not finish (%v); thread states:\n", runErr)
		for _, th := range k.Threads() {
			fmt.Printf("  thread %-2d %-8s pc=%#08x restarts=%d suspensions=%d\n",
				th.ID, th.State, th.Ctx.PC, th.Restarts, th.Suspensions)
		}
	}
	return runErr
}

// runPersistent demonstrates the NVRAM persistence model end to end: the
// crash-consistent counter guest runs on a memory with a volatile
// write-back tier in front of NVM, -crash-at injects a whole-machine
// crash that DISCARDS unflushed lines, and the same binary then reboots
// over the surviving NVM image — no reload — repairs the lock it finds
// there, and completes the workload exactly.
func runPersistent(o options) error {
	prog, err := asm.Assemble(guest.PersistentCounterProgram(o.workers, o.iters))
	if err != nil {
		return err
	}
	mem := vmach.NewMemory()
	mem.EnablePersistence()
	boot := func(faults chaos.Injector, load bool) *kernel.Kernel {
		k := kernel.New(kernel.Config{
			Strategy: &kernel.Designated{}, CheckAt: kernel.CheckAtResume,
			Quantum: o.quantum, MaxCycles: o.timeout, Memory: mem, Faults: faults,
			Watchdog: chaos.Watchdog{Policy: chaos.WatchdogExtend},
		})
		if load {
			k.Load(prog)
		}
		k.Spawn(prog.MustSymbol("main"), guest.StackTop(0))
		return k
	}
	var faults chaos.Injector
	if o.crashAt > 0 {
		faults = chaos.OneShot{Point: chaos.PointStep, N: o.crashAt,
			Action: chaos.Action{CrashVolatile: true, Torn: o.torn}}
	}
	counter := prog.MustSymbol("counter")
	lock := prog.MustSymbol("lock")
	repairs := prog.MustSymbol("repairs")

	fmt.Printf("demo:          persistent (%d workers x %d iters, %d-byte persistence lines)\n",
		o.workers, o.iters, vmach.LineBytes)
	k := boot(faults, true)
	runErr := k.Run()
	// want is the exact final counter: the reboot reruns the full workload
	// on top of whatever the NVM image preserved.
	want := uint32(o.workers * o.iters)
	status := "CORRECT"
	if o.crashAt > 0 {
		if !errors.Is(runErr, kernel.ErrMachineCrash) {
			return fmt.Errorf("the guest finished before step %d (run = %v); try a smaller -crash-at", o.crashAt, runErr)
		}
		// The injected crash already discarded the volatile tier: what the
		// memory holds now is the NVM image alone.
		c0 := mem.Peek(counter)
		fmt.Printf("crash:         volatile tier discarded at step %d\n", o.crashAt)
		fmt.Printf("NVM state:     counter=%d lock=%#x repairs=%d\n",
			c0, mem.Peek(lock), mem.Peek(repairs))
		fmt.Printf("boot 1:        %d flushes, %d fences, %d lines persisted\n",
			k.M.Stats.Flushes, k.M.Stats.Fences, k.M.Stats.LinesPersisted)
		k = boot(nil, false) // reboot: program image and lock state are in NVM
		if err := k.Run(); err != nil {
			return fmt.Errorf("reboot run: %w", err)
		}
		want += c0
		status = "RECOVERED"
	} else if runErr != nil {
		return runErr
	}

	got := mem.Peek(counter)
	if got != want {
		status = "LOST UPDATES"
	}
	lw := mem.Peek(lock)
	fmt.Printf("counter:       %d / %d  [%s]\n", got, want, status)
	fmt.Printf("lock word:     %#x (owner %d, epoch %d), repairs %d\n",
		lw, int32(lw&0xFFFF)-1, lw>>16, mem.Peek(repairs))
	fmt.Printf("persists:      %d flushes, %d fences, %d lines drained (%d cycles)\n",
		k.M.Stats.Flushes, k.M.Stats.Fences, k.M.Stats.LinesPersisted, k.M.Stats.PersistCycles)
	return nil
}

// runJournal demonstrates the crash-consistent journaling discipline end
// to end: the guest increments two NVM words inside a logged transaction,
// -crash-at kills the machine mid-transaction (optionally with -torn
// write-backs), the demo dumps the NVM image the crash left behind and
// decides — from the surviving log record alone, exactly as the guest's
// own recovery path will — whether the in-flight transaction committed,
// then reboots the same binary over the surviving image and verifies the
// recovered state. With -log nofence the record never reaches NVM, and a
// torn crash that splits the two data write-backs leaves the words
// unequal with nothing to repair them from: the demo reports the
// inconsistency instead of hiding it.
func runJournal(o options) error {
	var src string
	switch o.logMode {
	case "redo", "undo":
		src = guest.JournalProgram(o.logMode, o.iters)
	case "nofence":
		src = guest.NoFenceJournalProgram(o.iters)
	default:
		return fmt.Errorf("-demo journal: unknown -log %q (redo, undo, nofence)", o.logMode)
	}
	prog, err := asm.Assemble(src)
	if err != nil {
		return err
	}
	mem := vmach.NewMemory()
	mem.EnablePersistence()
	boot := func(faults chaos.Injector, load bool) *kernel.Kernel {
		k := kernel.New(kernel.Config{
			Strategy: &kernel.Designated{}, CheckAt: kernel.CheckAtResume,
			Quantum: o.quantum, MaxCycles: o.timeout, Memory: mem, Faults: faults,
		})
		if load {
			k.Load(prog)
		}
		k.Spawn(prog.MustSymbol("main"), guest.StackTop(0))
		return k
	}
	var faults chaos.Injector
	if o.crashAt > 0 {
		faults = chaos.OneShot{Point: chaos.PointStep, N: o.crashAt,
			Action: chaos.Action{CrashVolatile: true, Torn: o.torn}}
	}
	jlog := prog.MustSymbol("jlog")
	applied := prog.MustSymbol("applied")
	va := prog.MustSymbol("va")
	vb := prog.MustSymbol("vb")

	fmt.Printf("demo:          journal (-log %s, target %d, %d-byte persistence lines)\n",
		o.logMode, o.iters, vmach.LineBytes)
	k := boot(faults, true)
	runErr := k.Run()
	recovered := false
	if o.crashAt > 0 {
		if !errors.Is(runErr, kernel.ErrMachineCrash) {
			return fmt.Errorf("the guest finished before step %d (run = %v); try a smaller -crash-at", o.crashAt, runErr)
		}
		// The injected crash already discarded the volatile tier: the
		// memory now holds the NVM image alone. Read the surviving record
		// and judge it the way the guest's recovery path will.
		kind := "clean"
		if o.torn {
			kind = "torn"
		}
		seq, xa, xb, ck := mem.Peek(jlog), mem.Peek(jlog+4), mem.Peek(jlog+8), mem.Peek(jlog+12)
		ap := mem.Peek(applied)
		verdict := "stale (seq != applied+1): nothing in flight"
		if guest.JournalCksum(seq, xa, xb) != ck {
			verdict = "invalid checksum: torn or never flushed, data untouched"
		} else if seq == ap+1 {
			verdict = "commits: recovery will repair va and vb from it"
		}
		fmt.Printf("crash:         %s, volatile tier discarded at step %d\n", kind, o.crashAt)
		fmt.Printf("NVM state:     va=%d vb=%d applied=%d\n", mem.Peek(va), mem.Peek(vb), ap)
		fmt.Printf("NVM record:    seq=%d xa=%d xb=%d ck=%#x — %s\n", seq, xa, xb, ck, verdict)
		fmt.Printf("boot 1:        %d flushes, %d fences, %d lines persisted\n",
			k.M.Stats.Flushes, k.M.Stats.Fences, k.M.Stats.LinesPersisted)
		k = boot(nil, false) // reboot: program image and journal are in NVM
		if err := k.Run(); err != nil {
			return fmt.Errorf("reboot run: %w", err)
		}
		recovered = true
	} else if runErr != nil {
		return runErr
	}

	a, b := mem.Peek(va), mem.Peek(vb)
	status := "CONSISTENT"
	if recovered {
		status = "RECOVERED"
	}
	if a != b || a != uint32(o.iters) {
		status = "INCONSISTENT"
	}
	fmt.Printf("va / vb:       %d / %d (target %d)  [%s]\n", a, b, o.iters, status)
	fmt.Printf("transactions:  %d applied\n", mem.Peek(applied))
	fmt.Printf("persists:      %d flushes, %d fences, %d lines drained (%d cycles)\n",
		k.M.Stats.Flushes, k.M.Stats.Fences, k.M.Stats.LinesPersisted, k.M.Stats.PersistCycles)
	if status == "INCONSISTENT" {
		return fmt.Errorf("journal %s: recovered state is inconsistent (va=%d vb=%d)", o.logMode, a, b)
	}
	return nil
}

// runReplaySched re-executes a model-checker counterexample: the .sched
// file names the model and its forced decisions, so the run is exact —
// the same violation the checker found, now with the full observability
// stack attached (-trace-out for a Chrome trace of the failing
// interleaving).
func runReplaySched(o options) error {
	s, err := mcheck.ReadFile(o.replaySched)
	if err != nil {
		return err
	}
	m, err := mcheck.BuildSchedule(s)
	if err != nil {
		return err
	}
	opt := mcheck.Options{}
	var capture *obs.Capture
	if o.traceOut != "" {
		capture = &obs.Capture{}
		opt.Tracer = capture
	}
	vio, err := mcheck.RunOnce(m, s.Decisions, opt)
	if err != nil {
		return err
	}
	fmt.Printf("schedule:      %s\n", o.replaySched)
	fmt.Printf("model:         %s [%s]\n", s.Model, s.ParamString())
	for _, d := range s.Decisions {
		fmt.Printf("decision:      %s at ordinal %d\n", d.Act, d.At)
	}
	if s.Note != "" {
		fmt.Printf("note:          %s\n", s.Note)
	}
	for _, v := range vio {
		fmt.Printf("violation:     %v\n", v)
	}
	if len(vio) == 0 {
		fmt.Printf("violations:    none reproduced\n")
	}
	if capture != nil {
		data, err := obs.ChromeTrace(capture.Events())
		if err != nil {
			return err
		}
		if err := writeOut(o.traceOut, data); err != nil {
			return err
		}
		if o.traceOut != "-" {
			fmt.Printf("trace:         %s (%d events; load in Perfetto)\n", o.traceOut, capture.Len())
		}
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

// faultSchedule builds the injector for the -kill-at / -crash-at flags.
func faultSchedule(o options) (chaos.Injector, error) {
	var shots []chaos.Injector
	if o.killAt != "" {
		for _, f := range strings.Split(o.killAt, ",") {
			n, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
			if err != nil || n == 0 {
				return nil, fmt.Errorf("-kill-at: bad step %q", f)
			}
			shots = append(shots, chaos.OneShot{Point: chaos.PointStep, N: n, Action: chaos.Action{Kill: true}})
		}
	}
	if o.crashAt > 0 {
		shots = append(shots, chaos.OneShot{Point: chaos.PointStep, N: o.crashAt, Action: chaos.Action{Crash: true}})
	}
	if len(shots) == 0 {
		return nil, nil
	}
	return chaos.Compose(shots...), nil
}

// writeCheckpoint encodes the kernel's state into the -checkpoint file.
func writeCheckpoint(k *kernel.Kernel, path, why string) error {
	if path == "" {
		return errors.New("-checkpoint-at given without -checkpoint file")
	}
	enc := k.Capture().Encode()
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		return err
	}
	fmt.Printf("checkpoint:    %s (%d bytes, %s %d); replay with -restore %s\n",
		path, len(enc), why, k.M.Stats.Instructions, path)
	return nil
}

func mechByName(s string) (guest.Mechanism, error) {
	for _, m := range []guest.Mechanism{
		guest.MechNone, guest.MechRegistered, guest.MechDesignated,
		guest.MechEmul, guest.MechInterlocked, guest.MechLockB,
		guest.MechUserLevel, guest.MechLamportA, guest.MechLamportB,
		guest.MechTaosMutex,
	} {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown mechanism %q", s)
}
