package bench

import "repro/internal/arch"

// Opts carries the settings a caller (rasbench's flags) passes to every
// table; each table reads only the ones it uses. Zero values select each
// table's defaults.
type Opts struct {
	Iters, Scale int
	Seed         uint64  // master seed for the seeded sweeps (0 = default)
	Level        float64 // chaos fault intensity in (0,1]; 0 sweeps the default levels
	Timeout      uint64  // cycle budget per run (0 = substrate default)
	CPUs         []int   // CPU (and shard) counts for smp, server and rmr; nil = default
}

// Table is one regenerable table: Run returns its rows (the JSON detail)
// and their formatted text.
type Table struct {
	Name, Title string
	// Pin is the BENCH file whose committed rows gate this table, "" if
	// the table is unpinned.
	Pin string
	Run func(Opts) (rows any, text string, err error)
}

// rendered adapts a Table*/Format* pair to Table.Run's result:
// rendered(FormatX)(TableX(...)).
func rendered[R any](format func([]R) string) func([]R, error) (any, string, error) {
	return func(rows []R, err error) (any, string, error) {
		if err != nil {
			return nil, "", err
		}
		return rows, format(rows), nil
	}
}

// seeded returns o.Seed if it is set, else def.
func seeded(o Opts, def uint64) uint64 {
	if o.Seed != 0 {
		return o.Seed
	}
	return def
}

const paperPin = "BENCH_paper.json"

// Tables lists every table in the order rasbench prints them.
var Tables = []Table{
	{"1", "Table 1: mutual exclusion microbenchmarks, DECstation 5000/200 (simulated)", paperPin, func(o Opts) (any, string, error) {
		return rendered(FormatTable1)(Table1(o.Iters))
	}},
	{"2", "Table 2: thread management overhead, emulation vs R.A.S.", paperPin, func(o Opts) (any, string, error) {
		return rendered(FormatTable2)(Table2(o.Iters / 10))
	}},
	{"3", "Table 3: application performance", paperPin, func(o Opts) (any, string, error) {
		s := DefaultScale()
		s.TextParas *= o.Scale
		s.AFSDirs *= o.Scale
		s.ParthChain *= o.Scale
		s.ProtonKB *= o.Scale
		return rendered(FormatTable3)(Table3(s))
	}},
	{"4", "Table 4: hardware vs software Test-And-Set, eight processors", paperPin, func(o Opts) (any, string, error) {
		return rendered(FormatTable4)(Table4(o.Iters))
	}},
	{"i860", "i860 hardware lock bit vs software (§7)", paperPin, func(o Opts) (any, string, error) {
		return rendered(FormatI860)(TableI860(o.Iters))
	}},
	{"lamport", "Software reservation protocols (Figure 1 vs Figure 2)", paperPin, func(o Opts) (any, string, error) {
		return rendered(FormatLamport)(TableLamport(o.Iters))
	}},
	{"holdups", "parthenon-10 lock holdups (§5.3)", paperPin, func(o Opts) (any, string, error) {
		s := DefaultScale()
		s.Quantum = 3000
		return rendered(FormatHoldups)(TableHoldups(s))
	}},
	{"ablation", "PC-check placement ablation (§4.1)", paperPin, func(o Opts) (any, string, error) {
		return rendered(FormatAblation)(TableAblation(3, 200))
	}},
	{"wbuf", "Write-buffer sensitivity (§5.1 design remark)", "", func(o Opts) (any, string, error) {
		return rendered(FormatWriteBuffer)(TableWriteBuffer(o.Iters))
	}},
	{"ranges", "Registration-table size vs check cost (§3.1 restriction)", "", func(o Opts) (any, string, error) {
		format := func(rows []RangesRow) string { return FormatRanges(rows, arch.R3000().PCCheckDesignatedCycles) }
		return rendered(format)(TableRegistrationRanges(3, 200))
	}},
	{"quantum", "Restart frequency vs scheduling quantum (validating §5.3's optimism)", "", func(o Opts) (any, string, error) {
		return rendered(FormatQuantumSweep)(TableQuantumSweep(4, 500, nil))
	}},
	{"workers", "Server worker pool on a uniprocessor (afs-bench client)", "", func(o Opts) (any, string, error) {
		return rendered(FormatServerWorkers)(TableServerWorkers(nil))
	}},
	{"chaos", "Chaos sweep: seeded fault injection, watchdog, degradation", "", func(o Opts) (any, string, error) {
		cfg := DefaultChaosConfig()
		cfg.Seed = seeded(o, cfg.Seed)
		if o.Level > 0 {
			cfg.Levels = []float64{o.Level}
		}
		cfg.MaxCycles = o.Timeout
		return rendered(FormatChaos)(TableChaos(cfg))
	}},
	{"recovery", "Recovery sweep: thread kills, orphan repair, checkpoint/restore", "", func(o Opts) (any, string, error) {
		cfg := DefaultRecoveryConfig()
		cfg.Seed = seeded(o, cfg.Seed)
		cfg.MaxCycles = o.Timeout
		return rendered(FormatRecovery)(TableRecovery(cfg))
	}},
	{"persist", "Persistence sweep: volatile crashes, bounded loss, NVM recovery (E23)", "BENCH_persist.json", func(o Opts) (any, string, error) {
		cfg := DefaultPersistConfig()
		cfg.Seed = seeded(o, cfg.Seed)
		cfg.MaxCycles = o.Timeout
		return rendered(FormatPersist)(TablePersist(cfg))
	}},
	{"journal", "Journaling sweep: undo vs redo WAL, torn crashes, replay (E24)", "BENCH_journal.json", func(o Opts) (any, string, error) {
		cfg := DefaultJournalConfig()
		cfg.Seed = seeded(o, cfg.Seed)
		cfg.MaxCycles = o.Timeout
		return rendered(FormatJournal)(TableJournal(cfg))
	}},
	{"smp", "SMP sweep: §7 hybrid RAS+spinlock vs pure spinlock vs ll/sc", "BENCH_smp.json", func(o Opts) (any, string, error) {
		cfg := DefaultSMPConfig()
		if o.CPUs != nil {
			cfg.CPUList = o.CPUs
		}
		cfg.Seed = seeded(o, cfg.Seed)
		cfg.MaxCycles = o.Timeout
		return rendered(FormatSMP)(TableSMP(cfg))
	}},
	{"server", "Server sweep: per-CPU request plane vs mutex queue, one million requests", "BENCH_server.json", func(o Opts) (any, string, error) {
		cfg := DefaultServerConfig()
		if o.CPUs != nil {
			cfg.CPUList = o.CPUs
			cfg.Shards = o.CPUs
		}
		cfg.Seed = seeded(o, cfg.Seed)
		cfg.MaxCycles = o.Timeout
		return rendered(FormatServer)(TableServer(cfg))
	}},
	{"rmr", "RMR sweep: queue locks' remote references per passage vs the spinlock's", "BENCH_rmr.json", func(o Opts) (any, string, error) {
		cfg := DefaultRMRConfig()
		if o.CPUs != nil {
			cfg.CPUList = o.CPUs
		}
		cfg.Seed = seeded(o, cfg.Seed)
		cfg.MaxCycles = o.Timeout
		return rendered(FormatRMR)(TableRMR(cfg))
	}},
	{"resilience", "Resilience sweep: crash-restart supervision, exactly-once server, degraded cycle (E27)", "BENCH_resilience.json", func(o Opts) (any, string, error) {
		cfg := DefaultResilienceConfig()
		cfg.Seed = seeded(o, cfg.Seed)
		cfg.MaxCycles = o.Timeout
		return rendered(FormatResilience)(TableResilience(cfg))
	}},
}
