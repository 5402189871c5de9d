package main

// metric is one named number the benchmark prints. moves records, for a
// per-layer metric, which end-to-end metric on which workload it should
// move; it is the prediction a change to that layer is judged against.
type metric struct {
	name, unit, better string
	moves              string
}

// endToEnd are the metrics an untraced run prints. Every workload prints
// all of them, and none of them can read 0 on a healthy run; what an
// operation is depends on the workload (see workloads).
var endToEnd = []metric{
	{"norm_cpu_s", "s", "lower", ""},
	{"setup_s", "s", "lower", ""},
	{"norm_cpu_us_per_op", "us", "lower", ""},
	{"ok_frac", "ratio", "higher", ""},
}

// perLayer are the metrics a traced run prints. A layer the workload does
// not exercise, or that its public functions do not expose, reads 0.
var perLayer = []metric{
	// The simulated clock and the workloads' own outcomes.
	{"fail_frac", "ratio", "lower", "ok_frac on every workload: failed operations over attempted ones"},
	{"sim_cycles_per_op", "cycles", "lower", "nothing host-side; a cost-model change on smp-server and uniproc-server"},
	{"sim_p99_cycles", "cycles", "lower", "nothing host-side; client p99 on smp-server and uniproc-server"},
	{"sim_availability", "ratio", "higher", "nothing host-side; median availability of completed crash-restart campaigns"},
	{"states_covered", "count", "higher", "ok_frac on mcheck-hybrid: a faster explorer may not lose coverage"},

	// vmach, isa and vmach/kernel.
	{"vmach.instructions", "count", "lower", "sim_cycles_per_op on smp-server"},
	{"vmach.loads", "count", "lower", "sim_cycles_per_op on smp-server"},
	{"vmach.stores", "count", "lower", "sim_cycles_per_op on smp-server"},
	{"vmach.interlocked", "count", "lower", "sim_cycles_per_op on smp-server"},
	{"kernel.switches", "count", "lower", "sim_cycles_per_op on smp-server"},
	{"kernel.suspensions", "count", "lower", "sim_cycles_per_op on smp-server"},
	{"kernel.restarts", "count", "lower", "sim_cycles_per_op on smp-server"},
	{"kernel.restart_ratio", "ratio", "lower", "sim_cycles_per_op on smp-server"},
	{"kernel.emul_traps", "count", "lower", "sim_cycles_per_op on smp-server"},
	{"kernel.syscalls", "count", "lower", "sim_cycles_per_op on smp-server"},
	{"vmach.host_ns_per_instr", "ns", "lower", "norm_cpu_s on smp-server; on mcheck-hybrid and crash-restart it shows as mcheck.host_ns_per_step and resilience.host_ns_per_step; nothing on uniproc-server"},

	// vmach/smp.
	{"smp.rounds", "count", "lower", "norm_cpu_s on smp-server"},
	{"smp.host_ns_per_round", "ns", "lower", "norm_cpu_s on smp-server, mostly the DSM and mutex cells"},
	{"smp.rmrs", "count", "lower", "sim_cycles_per_op on smp-server"},
	{"smp.coherence_cycles", "cycles", "lower", "sim_cycles_per_op on smp-server"},
	{"smp.coherence_calls", "count", "lower", "norm_cpu_s on smp-server"},
	{"smp.coherence_ns_per_call", "ns", "lower", "norm_cpu_s on smp-server"},

	// mcheck.
	{"mcheck.schedules", "count", "lower", "norm_cpu_s on mcheck-hybrid"},
	{"mcheck.pruned", "count", "lower", "norm_cpu_s on mcheck-hybrid"},
	{"mcheck.prune_ratio", "ratio", "lower", "norm_cpu_s on mcheck-hybrid"},
	{"mcheck.new_s", "s", "lower", "norm_cpu_s on mcheck-hybrid"},
	{"mcheck.replay_s", "s", "lower", "norm_cpu_s on mcheck-hybrid"},
	{"mcheck.hash_s", "s", "lower", "norm_cpu_s on mcheck-hybrid"},
	{"mcheck.finish_s", "s", "lower", "norm_cpu_s on mcheck-hybrid"},
	{"mcheck.explorer_self_s", "s", "lower", "norm_cpu_s on mcheck-hybrid"},
	{"mcheck.steps_replayed", "count", "lower", "norm_cpu_s on mcheck-hybrid"},
	{"mcheck.host_ns_per_step", "ns", "lower", "norm_cpu_s on mcheck-hybrid"},

	// uniproc, cthreads, uxserver and memfs.
	{"uniproc.memops", "count", "lower", "sim_cycles_per_op on uniproc-server"},
	{"uniproc.switches", "count", "lower", "sim_cycles_per_op on uniproc-server"},
	{"uniproc.restarts", "count", "lower", "sim_cycles_per_op on uniproc-server"},
	{"uniproc.host_ns_per_memop", "ns", "lower", "norm_cpu_s on uniproc-server"},
	{"uxserver.mean_batch", "requests", "higher", "sim_cycles_per_op on uniproc-server"},

	// resilience and vmach persistence.
	{"resilience.boots", "count", "lower", "norm_cpu_us_per_op on crash-restart"},
	{"resilience.crashes", "count", "lower", "sim_availability on crash-restart"},
	{"resilience.recovery_crashes", "count", "lower", "sim_availability on crash-restart"},
	{"resilience.boot_us", "us", "lower", "norm_cpu_us_per_op on crash-restart"},
	{"resilience.supervisor_self_us", "us", "lower", "norm_cpu_us_per_op on crash-restart"},
	{"resilience.host_ns_per_step", "ns", "lower", "norm_cpu_us_per_op on crash-restart"},
	{"resilience.recovery_p95_cycles", "cycles", "lower", "sim_availability on crash-restart"},

	// Go runtime, from the untraced phase of a traced run.
	{"go.alloc_mb", "MB", "lower", "norm_cpu_s on every workload"},
	{"go.gc_cycles", "count", "lower", "norm_cpu_s on every workload"},
	{"go.gc_cpu_frac", "ratio", "lower", "norm_cpu_s on every workload"},
	{"go.peak_rss_mb", "MB", "lower", "nothing directly; watches memory growth from forking snapshots"},

	// The probes themselves.
	{"cpu_s", "s", "lower", "norm_cpu_s on every workload: the same samples before scaling by the square root of refNominal over ref.cpu_s"},
	{"ref.cpu_s", "s", "lower", "nothing; the reference loop's median CPU time, to undo the scaling"},
	{"wall_s", "s", "lower", "norm_cpu_s on every workload: the same samples on the wall clock, which host steal time inflates"},
	{"trace.wall_s", "s", "lower", "nothing; wall_s measured with the probes on"},
	{"trace.overhead_s", "s", "lower", "nothing; trace.wall_s minus the untraced wall_s of the same process"},
	{"trace.spans", "count", "lower", "nothing; spans recorded, including those past the in-memory cap"},
}
