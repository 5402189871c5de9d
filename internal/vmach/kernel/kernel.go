// Package kernel implements the operating-system half of the simulated
// uniprocessor: thread contexts, a preemptive round-robin scheduler driven
// by a timer quantum, syscalls, demand paging, and — the subject of the
// paper — the recovery machinery for restartable atomic sequences.
//
// Three recovery strategies are provided, mirroring the paper:
//
//   - Registration: Mach 3.0 style (§3.1). The address space registers a
//     single PC range; a thread suspended inside it is resumed at its start.
//   - Designated: Taos style (§3.2). The kernel recognizes interrupted
//     atomic sequences by inspecting the suspended thread's instruction
//     stream with a two-stage opcode-hash + landmark check.
//   - UserLevel: §4.1's alternative. The kernel vectors every resumed
//     thread through a user-level trampoline that performs its own check.
//
// The kernel also provides kernel-emulated Test-And-Set (§2.3) as a syscall
// executed with interrupts disabled, and honours the i860-style hardware
// lock bit (§7) by rolling a suspended thread back to its lockb instruction.
package kernel

import (
	"errors"
	"fmt"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/chaos"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/vmach"
)

// Syscall numbers (passed in v0).
const (
	SysExit         = 0 // a0 = exit code
	SysYield        = 1
	SysWrite        = 2 // a0 = word appended to the console
	SysRasRegister  = 3 // a0 = start, a1 = length in bytes; v0 = 0 ok / -1 unsupported
	SysTas          = 4 // a0 = address; v0 = old value (kernel-emulated Test-And-Set)
	SysThreadCreate = 5 // a0 = entry, a1 = argument, a2 = stack top; v0 = tid
	SysTime         = 6 // v0 = low 32 bits of cycle counter, v1 = high
	SysSetHandler   = 7 // a0 = user-level resume trampoline address

	// Taos-style mutex support (§3.2, Figure 5): the designated acquire
	// and release sequences handle the common case inline; the infrequent
	// cases trap to the kernel. The mutex word holds 0 (unlocked),
	// MutexLocked (locked, no waiters) or MutexLocked|MutexWaiters.
	SysMutexSlow = 8 // a0 = mutex address; returns owning the mutex
	SysMutexWake = 9 // a0 = mutex address; wakes one waiter (handoff)

	// Recoverable-mutual-exclusion support: the liveness oracle. A lock
	// word naming a dead owner is orphaned and may be repaired.
	SysThreadAlive = 10 // a0 = tid; v0 = 1 if the thread can still run, else 0

	// SMP support: which CPU is the caller running on? The hybrid lock
	// (paper §7) indexes its per-CPU claim word with this. Threads never
	// migrate between CPUs, so the answer is stable for a thread's life.
	SysCPU = 11 // v0 = CPU number (0 on a uniprocessor)

	// Cross-CPU liveness: like SysThreadAlive but a0 is a *global*
	// thread id (cpu*stride + local id, the smp.GlobalID encoding). A
	// queue lock's qnodes name threads on other CPUs; repairing a
	// queue after a death needs an oracle that can answer for them.
	// On a standalone kernel global and local ids coincide.
	SysThreadAliveG = 12 // a0 = global tid; v0 = 1 if alive, else 0
)

// Mutex word values for the Taos-style designated mutex.
const (
	MutexLocked  = 0x8000_0000 // locked-but-no-waiters (paper §3.2)
	MutexWaiters = 0x0000_0001
)

// ThreadState is a thread's scheduler state.
type ThreadState int

const (
	StateReady ThreadState = iota
	StateRunning
	StateBlocked
	StateDone
	StateFaulted
	StateKilled // terminated by fault injection or KillThread; not a guest bug
)

func (s ThreadState) String() string {
	switch s {
	case StateReady:
		return "ready"
	case StateRunning:
		return "running"
	case StateBlocked:
		return "blocked"
	case StateDone:
		return "done"
	case StateFaulted:
		return "faulted"
	case StateKilled:
		return "killed"
	}
	return "unknown"
}

// Thread is one kernel-scheduled thread.
type Thread struct {
	ID int
	// AS identifies the thread's address space. Threads share simulated
	// memory regardless (the simulator models one physical memory), but
	// RAS registration is per address space, as in Mach (§3.1).
	AS    int
	Ctx   vmach.Context
	State ThreadState

	ExitCode isa.Word
	Fault    *vmach.Fault

	// Per-thread accounting.
	Suspensions uint64 // involuntary suspensions (preemption, page fault)
	Restarts    uint64 // RAS rollbacks applied to this thread

	// needsCheck marks a thread whose PC check was deferred to resume
	// time (CheckAtResume policy, or user-level detection).
	needsCheck bool

	// Restart-livelock watchdog state: seqRestarts counts consecutive
	// rollbacks to seqPC with no intervening suspension outside the
	// sequence; extended records that the one-time quantum extension was
	// spent; boostSlice grants the extension at the next dispatch.
	seqPC       uint32
	seqRestarts uint64
	extended    bool
	boostSlice  bool
}

// CheckTime selects when the PC check runs (§4.1 "Placement of the PC
// check"): Mach checks at suspension, Taos at resume.
type CheckTime int

const (
	CheckAtSuspend CheckTime = iota // Mach: return PC conveniently at hand
	CheckAtResume                   // Taos: user memory safely touchable
)

// Stats aggregates kernel-wide accounting, matching the columns of the
// paper's Table 3.
type Stats struct {
	Suspensions    uint64 // involuntary thread suspensions
	Preemptions    uint64 // timer-driven subset of the above
	PageFaults     uint64
	Restarts       uint64 // RAS rollbacks performed
	EmulTraps      uint64 // kernel-emulated atomic operations
	Syscalls       uint64
	Switches       uint64 // context switches
	CheckRejects   uint64 // designated checks that failed stage 1 or 2
	HardwareResets uint64 // i860 lock-bit rollbacks
	SlowAcquires   uint64 // out-of-line mutex acquisitions (§3.2)
	MutexWakes     uint64 // kernel handoffs to a mutex waiter

	// Chaos and degradation accounting.
	Spurious        uint64 // injected spurious suspensions
	Injected        uint64 // chaos actions applied (any kind)
	WatchdogExtends uint64 // one-time quantum extensions granted
	WatchdogAborts  uint64 // livelocks aborted with a diagnostic
	Kills           uint64 // threads killed (fault injection or KillThread)
}

// Config parametrizes a kernel instance.
type Config struct {
	Profile  *arch.Profile
	Strategy Strategy  // nil means NoRecovery
	CheckAt  CheckTime // when the PC check runs
	Quantum  uint64    // timeslice in cycles (0: default 10000)
	// PageFaultServiceCycles is charged to fault a page in. Default 2000.
	PageFaultServiceCycles uint64
	// MaxCycles aborts a run that exceeds the budget. Default 2^40.
	MaxCycles uint64
	// EvictEvery, when nonzero, evicts the suspended thread's code page on
	// every Nth involuntary suspension — failure injection for the §4.1
	// hazard: the kernel's own PC check then page-faults and must recover.
	// For seeded, combinable fault schedules use Faults instead.
	EvictEvery uint64
	// Faults, when non-nil, is consulted at every dispatch, involuntary
	// suspension, and retired instruction; the requested faults (forced
	// preemptions, spurious suspensions, page evictions, timeslice jitter)
	// are applied before the next guest instruction runs.
	Faults chaos.Injector
	// Watchdog configures restart-livelock detection: a thread rolled back
	// to the same sequence start Limit() times in a row, with no
	// suspension outside the sequence in between, is handled by policy —
	// one quantum extension (WatchdogExtend) or an aborted run carrying a
	// *LivelockError diagnostic (WatchdogAbort).
	Watchdog chaos.Watchdog
	// Memory, when non-nil, backs the kernel's machine instead of a fresh
	// memory — the CPUs of an SMP complex share one physical memory this
	// way (internal/vmach/smp).
	Memory *vmach.Memory
	// CPUID identifies which CPU of an SMP complex this kernel schedules
	// (zero on a plain uniprocessor). It stamps trace events and answers
	// SysCPU.
	CPUID int
}

// Kernel multiplexes threads onto one vmach.Machine.
type Kernel struct {
	M        *vmach.Machine
	Profile  *arch.Profile
	Strategy Strategy
	CheckAt  CheckTime
	Quantum  uint64
	// CPUID is which CPU of an SMP complex this kernel is (0 standalone).
	CPUID int

	pageFaultCycles uint64
	maxCycles       uint64
	evictEvery      uint64
	faults          chaos.Injector
	watchdog        chaos.Watchdog
	steps           uint64         // retired-instruction ordinal for PointStep
	livelock        *LivelockError // set by a watchdog abort; ends the run
	crashed         error          // set by an injected machine crash; ends the run
	deathFns        []func(*Thread)

	threads []*Thread
	runq    []*Thread
	cur     *Thread
	sliceAt uint64 // cycle count at which the running thread's slice ends

	// Mach-style registration state: exactly one sequence per address
	// space at a time (§3.1). Registering again replaces the previous
	// sequence for that space.
	rasBySpace map[int]rasRange

	// User-level detection state (§4.1).
	userHandler    uint32
	hasUserHandler bool

	// Taos-style mutex wait queues, keyed by mutex word address.
	waitq   map[uint32][]*Thread
	blocked int

	Stats   Stats
	Console []isa.Word

	// PeerAlive, when non-nil, answers SysThreadAliveG for global
	// thread ids that may live on other CPUs. The SMP system installs
	// one per kernel; standalone kernels leave it nil and fall back to
	// the local thread table (global == local on one CPU).
	PeerAlive func(gtid int) bool

	// Tracer, when non-nil, receives kernel events (dispatches,
	// preemptions, restarts, syscalls, faults).
	Tracer Tracer

	// Profiler, when non-nil, receives one sample per retired guest
	// instruction and one note per kernel-time charge, attributing
	// virtual cycles to guest PCs and symbols. Use AttachProfiler to
	// install it with the program's symbol table.
	Profiler *obs.CycleProfiler
}

// New creates a kernel and machine from cfg.
func New(cfg Config) *Kernel {
	cfg = defaulted(cfg)
	return newKernel(cfg, vmach.NewWithMemory(cfg.Profile, cfg.Memory))
}

// defaulted fills every zero field of cfg with its default.
func defaulted(cfg Config) Config {
	if cfg.Profile == nil {
		cfg.Profile = arch.R3000()
	}
	if cfg.Strategy == nil {
		cfg.Strategy = NoRecovery{}
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = 10000
	}
	if cfg.PageFaultServiceCycles == 0 {
		cfg.PageFaultServiceCycles = 2000
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 1 << 40
	}
	return cfg
}

// newKernel is a kernel built from a defaulted cfg over machine m.
func newKernel(cfg Config, m *vmach.Machine) *Kernel {
	return &Kernel{
		rasBySpace:      make(map[int]rasRange),
		waitq:           make(map[uint32][]*Thread),
		M:               m,
		CPUID:           cfg.CPUID,
		Profile:         cfg.Profile,
		Strategy:        cfg.Strategy,
		CheckAt:         cfg.CheckAt,
		Quantum:         cfg.Quantum,
		pageFaultCycles: cfg.PageFaultServiceCycles,
		maxCycles:       cfg.MaxCycles,
		evictEvery:      cfg.EvictEvery,
		faults:          cfg.Faults,
		watchdog:        cfg.Watchdog,
	}
}

// Load copies an assembled program into memory and predecodes its text.
func (k *Kernel) Load(p *asm.Program) {
	k.M.Mem.LoadProgramWords(p.TextBase, p.Text)
	k.M.Mem.PredecodeText(p.TextBase, len(p.Text))
	k.M.Mem.LoadProgramWords(p.DataBase, p.Data)
}

// Spawn creates a ready thread in address space 0 starting at entry with
// the given stack top and up to three arguments in a0-a2.
func (k *Kernel) Spawn(entry, stackTop uint32, args ...isa.Word) *Thread {
	return k.SpawnAS(0, entry, stackTop, args...)
}

// SpawnAS creates a ready thread in the given address space.
func (k *Kernel) SpawnAS(as int, entry, stackTop uint32, args ...isa.Word) *Thread {
	t := &Thread{ID: len(k.threads), AS: as}
	t.Ctx.PC = entry
	t.Ctx.Regs[isa.RegSP] = stackTop
	for i, a := range args {
		if i > 2 {
			break
		}
		t.Ctx.Regs[isa.RegA0+i] = a
	}
	k.threads = append(k.threads, t)
	k.runq = append(k.runq, t)
	return t
}

// Threads returns all threads ever spawned.
func (k *Kernel) Threads() []*Thread { return k.threads }

// ThreadAlive reports whether the thread with the given local id can
// still run — the same answer SysThreadAlive gives the guest. Unknown
// ids are dead.
func (k *Kernel) ThreadAlive(id int) bool {
	if id < 0 || id >= len(k.threads) {
		return false
	}
	switch k.threads[id].State {
	case StateDone, StateFaulted, StateKilled:
		return false
	}
	return true
}

// ErrBudget is returned when a run exceeds its cycle budget.
var ErrBudget = errors.New("kernel: cycle budget exceeded")

// ErrDeadlock is returned when threads remain blocked with nothing runnable.
var ErrDeadlock = errors.New("kernel: deadlock: blocked threads but none runnable")

// ErrLivelock matches (with errors.Is) every watchdog-abort error.
var ErrLivelock = errors.New("restart livelock")

// LivelockError is the watchdog-abort diagnostic: the named thread kept
// restarting one restartable atomic sequence without forward progress —
// the §3.1 hazard of a sequence that does not fit the scheduling quantum
// (or whose recovery path keeps refaulting, §4.2).
type LivelockError struct {
	Thread   int
	SeqPC    uint32 // start address of the livelocked sequence
	Restarts uint64 // consecutive restarts observed when the watchdog fired
}

// Error implements error.
func (e *LivelockError) Error() string {
	return fmt.Sprintf(
		"kernel: restart livelock: thread %d restarted the sequence at pc=%#x %d times without progress (sequence longer than the quantum, §3.1)",
		e.Thread, e.SeqPC, e.Restarts)
}

// Unwrap makes errors.Is(err, ErrLivelock) hold.
func (e *LivelockError) Unwrap() error { return ErrLivelock }

// ErrMachineCrash matches (with errors.Is) the error from an injected
// whole-machine crash: the run stops where it stood, as if power were cut.
// A checkpoint taken at the crash restores to the exact pre-crash state
// and replays identically.
var ErrMachineCrash = errors.New("kernel: injected machine crash")

// Run schedules threads until every thread has exited. It returns an error
// if any thread faulted or the cycle budget was exceeded.
func (k *Kernel) Run() error {
	for {
		if fin, err := k.stepOnce(); fin {
			return err
		}
	}
}

// RunSteps advances the run until n more instructions retire (or the run
// ends first), reporting whether the run finished. Stopping by retired
// instructions — not wall cycles — gives checkpoints a deterministic cut
// point: the same program stopped at the same step always captures the
// same state.
func (k *Kernel) RunSteps(n uint64) (finished bool, err error) {
	target := k.M.Stats.Instructions + n
	for k.M.Stats.Instructions < target {
		if fin, e := k.stepOnce(); fin {
			return true, e
		}
	}
	return false, nil
}

// StepOne performs one scheduler iteration — dispatch or one guest
// instruction — reporting whether the run finished and its verdict. It is
// the instruction-granularity stepping hook the SMP round-robin scheduler
// drives; Run is equivalent to calling it until finished.
func (k *Kernel) StepOne() (finished bool, err error) { return k.stepOnce() }

// stepOnce performs one scheduler iteration: dispatch if no thread is
// running, otherwise execute one instruction and service whatever it
// raised. It reports the run finished (with the run's verdict) or not.
func (k *Kernel) stepOnce() (finished bool, err error) {
	if k.livelock != nil {
		return true, k.livelock
	}
	if k.crashed != nil {
		return true, k.crashed
	}
	if k.cur == nil {
		if len(k.runq) == 0 {
			if k.blocked > 0 {
				return true, ErrDeadlock
			}
			return true, k.finish()
		}
		k.dispatch()
		return false, nil // re-test livelock: a resume-time check may have aborted
	}
	if k.M.Stats.Cycles > k.maxCycles {
		return true, ErrBudget
	}

	var profPC uint32
	var profCyc uint64
	if k.Profiler != nil {
		profPC = k.cur.Ctx.PC
		profCyc = k.M.Stats.Cycles
	}
	ev := k.M.Step(&k.cur.Ctx)
	if k.Profiler != nil {
		k.profileStep(profPC, k.M.Stats.Cycles-profCyc)
	}
	switch ev.Kind {
	case vmach.EventNone:
		// Timer: preempt at slice end unless the i860 lock bit defers
		// interrupts (its budget bounds the deferral).
		if k.M.Stats.Cycles >= k.sliceAt && !k.cur.Ctx.LockActive {
			k.preempt()
		} else if k.faults != nil && !k.cur.Ctx.LockActive {
			k.steps++
			if act := k.faults.At(chaos.PointStep, k.steps); act.Any() {
				k.injectStep(act)
			}
		}

	case vmach.EventSyscall:
		k.syscall(ev)

	case vmach.EventBreak:
		k.cur.State = StateDone
		k.trace(TraceExit, k.cur, 0)
		k.notifyDeath(k.cur)
		k.cur = nil

	case vmach.EventFault:
		k.fault(ev.Fault)
	}
	return false, nil
}

func (k *Kernel) finish() error {
	for _, t := range k.threads {
		if t.State == StateFaulted {
			return fmt.Errorf("kernel: thread %d faulted: %v (pc=%#x)", t.ID, t.Fault, t.Ctx.PC)
		}
	}
	return nil
}

// dispatch pops the next ready thread and begins its timeslice.
func (k *Kernel) dispatch() {
	t := k.runq[0]
	k.runq = k.runq[1:]
	t.State = StateRunning
	k.cur = t
	// A context switch invalidates the CPU's ll/sc reservation (the
	// R4000's LLbit is cleared by eret): an interrupted ll/sc pair must
	// retry, never succeed against another thread's reservation.
	k.M.ClearReservation()
	k.Stats.Switches++
	k.trace(TraceDispatch, t, 0)
	k.chargeKernel(uint64(k.Profile.ResumeCycles))

	if t.needsCheck {
		t.needsCheck = false
		k.runCheck(t)
	}
	quantum := k.Quantum
	boosted := false
	if t.boostSlice {
		// Spend the watchdog's one-time extension: a slice long enough for
		// a sequence that does not fit the ordinary quantum.
		t.boostSlice = false
		boosted = true
		quantum *= k.watchdog.Factor()
	}
	k.sliceAt = k.M.Stats.Cycles + quantum
	if k.faults != nil {
		if act := k.faults.At(chaos.PointDispatch, k.Stats.Switches); act.Any() {
			k.Stats.Injected++
			k.trace(TraceInject, t, act.Bits())
			if act.EvictCode {
				k.M.Mem.SetPresent(t.Ctx.PC, false)
			}
			if act.EvictData {
				k.M.Mem.SetPresent(t.Ctx.Regs[isa.RegSP], false)
			}
			// Timeslice jitter; never applied to a watchdog-extended slice
			// (the extension is a liveness guarantee) and never shrinking a
			// slice to nothing.
			if act.Jitter != 0 && !boosted {
				at := int64(k.sliceAt) + act.Jitter
				if min := int64(k.M.Stats.Cycles) + 1; at < min {
					at = min
				}
				k.sliceAt = uint64(at)
			}
		}
	}
}

// injectStep applies a chaos action at a retired-instruction boundary.
func (k *Kernel) injectStep(act chaos.Action) {
	t := k.cur
	k.Stats.Injected++
	k.trace(TraceInject, t, act.Bits())
	if act.EvictCode {
		k.M.Mem.SetPresent(t.Ctx.PC, false)
	}
	if act.EvictData {
		k.M.Mem.SetPresent(t.Ctx.Regs[isa.RegSP], false)
	}
	switch {
	case act.CrashVolatile:
		// The NVRAM-model crash: unflushed lines revert to their NVM
		// images before the machine halts, so everything after the halt —
		// checkpoints, recovery reboots — sees NVM contents only. On a
		// memory without the persistence model there is no volatile tier
		// to lose and the fault degrades to the legacy full-persistence
		// Crash; the degradation is announced so a trace reader can tell
		// the schedule did not get the semantics it asked for.
		if !k.M.Mem.Persistent() {
			k.trace(TraceCrashDegraded, t, act.Bits())
		} else if act.Torn {
			k.M.Mem.DiscardUnflushedTorn(k.steps)
		} else {
			k.M.Mem.DiscardUnflushed()
		}
		k.crash()
	case act.Crash:
		k.crash()
	case act.Kill:
		k.reap(t)
		k.cur = nil
	case act.Preempt:
		k.preempt()
	case act.SpuriousSuspend:
		k.Stats.Spurious++
		k.trace(TracePreempt, t, 1)
		k.suspend(t)
		k.runq = append(k.runq, t)
		k.cur = nil
	}
}

// crash records an injected whole-machine crash. k.cur is left in place:
// a checkpoint taken at the crash captures the machine exactly as it
// stood, so a restore followed by Run replays the uncrashed remainder.
func (k *Kernel) crash() {
	k.trace(TraceCrash, k.cur, k.steps)
	k.crashed = fmt.Errorf("%w at step %d", ErrMachineCrash, k.steps)
}

// reap finalizes a killed thread. Death strikes between instructions, so
// the context freezes wherever the thread stood — possibly inside a
// restartable sequence, possibly owning a lock. Everything the scheduler
// and recovery machinery associate with the thread is torn down: it will
// never be dispatched, checked, or rolled back again.
func (k *Kernel) reap(t *Thread) {
	t.State = StateKilled
	t.needsCheck = false
	t.boostSlice = false
	t.Ctx.LockActive = false
	t.seqRestarts = 0
	// A kill invalidates the CPU's ll/sc reservation just as a context
	// switch does: the dead thread's pending reservation must not let a
	// later thread's sc succeed without its own ll.
	k.M.ClearReservation()
	k.Stats.Kills++
	k.chargeKernel(uint64(k.Profile.SuspendCycles))
	k.trace(TraceKill, t, 0)
	// Unregister the address space's sequence when its last live thread
	// dies: registration belongs to the space (§3.1), and a dead space
	// must not keep rolling back PCs that will never run.
	live := false
	for _, o := range k.threads {
		if o != t && o.AS == t.AS && o.State != StateDone && o.State != StateFaulted && o.State != StateKilled {
			live = true
			break
		}
	}
	if !live {
		delete(k.rasBySpace, t.AS)
	}
	k.notifyDeath(t)
}

// KillThread terminates thread id where it stands — the deterministic
// analogue of a chaos kill, used by rasvm's -kill-at flag and teardown
// tests. Unknown or already-terminated threads are an error.
func (k *Kernel) KillThread(id int) error {
	if id < 0 || id >= len(k.threads) {
		return fmt.Errorf("kernel: KillThread(%d): no such thread", id)
	}
	t := k.threads[id]
	switch t.State {
	case StateRunning:
		k.reap(t)
		k.cur = nil
	case StateReady:
		for i, q := range k.runq {
			if q == t {
				k.runq = append(k.runq[:i], k.runq[i+1:]...)
				break
			}
		}
		k.reap(t)
	case StateBlocked:
		for addr, q := range k.waitq {
			for i, w := range q {
				if w != t {
					continue
				}
				q = append(q[:i], q[i+1:]...)
				if len(q) == 0 {
					delete(k.waitq, addr)
				} else {
					k.waitq[addr] = q
				}
				k.blocked--
				break
			}
		}
		k.reap(t)
	default:
		return fmt.Errorf("kernel: KillThread(%d): thread already %v", id, t.State)
	}
	return nil
}

// OnThreadDeath registers fn to run whenever a thread dies — exits,
// breaks, or is killed. Callbacks run synchronously inside the kernel and
// may inspect memory through k.M; lock-owner bookkeeping (orphan
// detection) is the intended use.
func (k *Kernel) OnThreadDeath(fn func(*Thread)) { k.deathFns = append(k.deathFns, fn) }

func (k *Kernel) notifyDeath(t *Thread) {
	for _, fn := range k.deathFns {
		fn(t)
	}
}

// Current returns the running thread, or nil between timeslices. Harness
// watchpoints use it to attribute stores to threads.
func (k *Kernel) Current() *Thread { return k.cur }

// Steps returns the retired-instruction ordinal consulted for
// chaos.PointStep injection — the kernel's fault-schedule cursor.
func (k *Kernel) Steps() uint64 { return k.steps }

// chargeKernel accounts kernel-path cycles on the global clock.
func (k *Kernel) chargeKernel(cy uint64) {
	k.M.Stats.Cycles += cy
	if k.Profiler != nil {
		k.Profiler.NoteKernel(cy)
	}
}

// AttachProfiler installs a cycle profiler seeded with the program's
// symbol table, so samples resolve to guest symbols rather than raw PCs.
func (k *Kernel) AttachProfiler(p *obs.CycleProfiler, prog *asm.Program) {
	if prog != nil {
		syms := make([]obs.Symbol, 0, len(prog.Symbols))
		for name, addr := range prog.Symbols {
			syms = append(syms, obs.Symbol{Name: name, Addr: addr})
		}
		p.SetSymbols(syms)
	}
	k.Profiler = p
}

// profileStep feeds one retired instruction to the profiler. The shadow
// call stack needs to know whether the instruction transferred control
// into or out of a frame, so the retired word is re-decoded from memory
// (Peek ignores presence bits; the word was just fetched, so this reads
// what executed).
func (k *Kernel) profileStep(pc uint32, cycles uint64) {
	inst := isa.Decode(k.M.Mem.Peek(pc))
	kind := obs.SampleOp
	switch {
	case inst.Op == isa.OpJAL,
		inst.Op == isa.OpSpecial && inst.Funct == isa.FnJALR:
		kind = obs.SampleCall
	case inst.Op == isa.OpSpecial && inst.Funct == isa.FnJR && inst.Rs == isa.RegRA:
		kind = obs.SampleReturn
	}
	k.Profiler.Sample(k.cur.ID, pc, cycles, kind, k.cur.Ctx.PC)
}

// preempt suspends the running thread at a timer interrupt.
func (k *Kernel) preempt() {
	t := k.cur
	k.Stats.Preemptions++
	k.trace(TracePreempt, t, 0)
	k.suspend(t)
	k.runq = append(k.runq, t)
	k.cur = nil
}

// suspend performs the involuntary-suspension bookkeeping shared by
// preemption and page faults: accounting, the suspension path cost, the
// hardware lock-bit rollback, and — under CheckAtSuspend — the RAS check.
func (k *Kernel) suspend(t *Thread) {
	t.State = StateReady
	t.Suspensions++
	k.Stats.Suspensions++
	k.chargeKernel(uint64(k.Profile.SuspendCycles))

	// Failure injection: evict the thread's code page so that any PC check
	// reading the instruction stream must itself take a page fault.
	if k.evictEvery > 0 && k.Stats.Suspensions%k.evictEvery == 0 {
		k.M.Mem.SetPresent(t.Ctx.PC, false)
	}
	if k.faults != nil {
		if act := k.faults.At(chaos.PointSuspend, k.Stats.Suspensions); act.Any() {
			k.Stats.Injected++
			k.trace(TraceInject, t, act.Bits())
			if act.EvictCode {
				k.M.Mem.SetPresent(t.Ctx.PC, false)
			}
			if act.EvictData {
				k.M.Mem.SetPresent(t.Ctx.Regs[isa.RegSP], false)
			}
		}
	}

	// i860-style hardware restartable sequence: the kernel must back the
	// thread up to the lockb instruction (§7).
	if t.Ctx.LockActive {
		from := t.Ctx.PC
		t.Ctx.PC = t.Ctx.LockPC
		t.Ctx.LockActive = false
		t.Restarts++
		k.Stats.Restarts++
		k.Stats.HardwareResets++
		k.trace(TraceRestart, t, uint64(from))
	}

	switch k.CheckAt {
	case CheckAtSuspend:
		k.runCheck(t)
	case CheckAtResume:
		t.needsCheck = true
	}
}

// runCheck applies the configured recovery strategy to a suspended thread,
// charging its cost and handling the page faults the check itself can
// raise (§4.1: designated-sequence checks read user memory).
func (k *Kernel) runCheck(t *Thread) {
	for {
		before := t.Ctx.PC
		res := k.Strategy.Check(k, t)
		k.chargeKernel(uint64(res.Cost))
		if res.Fault != nil {
			// The check touched a non-present page: service the fault and
			// retry the check. Taos forbids this when coming *into* the
			// kernel; we model the §4 resolution by always being able to
			// fault the page in here.
			k.servicePage(res.Fault.Addr)
			continue
		}
		if res.Restarted {
			t.Restarts++
			k.Stats.Restarts++
			k.trace(TraceRestart, t, uint64(before))
			if k.watchdog.Policy != chaos.WatchdogOff {
				k.watchdogRestart(t)
			}
		} else {
			if k.Strategy.CanReject() {
				k.Stats.CheckRejects++
			}
			// A suspension that did not restart is forward progress: the
			// thread was outside any sequence, so the livelock streak ends
			// and the one-time extension becomes available again.
			t.seqRestarts = 0
			t.extended = false
		}
		return
	}
}

// watchdogRestart applies the restart-livelock policy after a rollback. A
// thread rolled back to the same sequence start Limit() times in a row,
// with no intervening suspension outside the sequence, is considered
// livelocked: under WatchdogExtend it is granted one extended timeslice
// (escalating to an abort if the livelock persists); under WatchdogAbort
// the run ends with a diagnostic naming the sequence.
func (k *Kernel) watchdogRestart(t *Thread) {
	start := t.Ctx.PC
	if t.seqPC != start {
		t.seqPC, t.seqRestarts = start, 0
		t.extended = false
	}
	t.seqRestarts++
	if t.seqRestarts < k.watchdog.Limit() {
		return
	}
	k.trace(TraceWatchdog, t, t.seqRestarts)
	if k.watchdog.Policy == chaos.WatchdogExtend && !t.extended {
		t.extended = true
		t.boostSlice = true
		t.seqRestarts = 0
		k.Stats.WatchdogExtends++
		return
	}
	k.Stats.WatchdogAborts++
	t.State = StateFaulted
	k.livelock = &LivelockError{Thread: t.ID, SeqPC: start, Restarts: t.seqRestarts}
}

func (k *Kernel) servicePage(addr uint32) {
	k.Stats.PageFaults++
	k.trace(TracePageFault, k.cur, uint64(addr))
	k.chargeKernel(k.pageFaultCycles)
	k.M.Mem.SetPresent(addr, true)
}

// fault handles a user-mode fault event.
func (k *Kernel) fault(f *vmach.Fault) {
	t := k.cur
	switch f.Kind {
	case vmach.FaultNotPresent:
		// Demand paging: a page fault suspends the thread (§4.2), services
		// the page, and requeues the thread; the faulting instruction
		// re-executes.
		k.suspend(t)
		k.servicePage(f.Addr)
		k.runq = append(k.runq, t)
		k.cur = nil
	default:
		t.State = StateFaulted
		t.Fault = f
		k.trace(TraceFault, t, uint64(f.Addr))
		k.cur = nil
	}
}

// syscall dispatches a syscall event. The machine has already advanced the
// PC past the syscall instruction.
func (k *Kernel) syscall(ev vmach.Event) {
	t := k.cur
	k.Stats.Syscalls++
	k.chargeKernel(uint64(k.Profile.TrapEnterCycles))
	num := t.Ctx.Regs[isa.RegV0]
	a0 := t.Ctx.Regs[isa.RegA0]
	a1 := t.Ctx.Regs[isa.RegA1]
	a2 := t.Ctx.Regs[isa.RegA2]

	k.trace(TraceSyscall, t, uint64(num))
	switch num {
	case SysExit:
		t.State = StateDone
		t.ExitCode = a0
		k.trace(TraceExit, t, uint64(a0))
		k.notifyDeath(t)
		k.cur = nil
		return // no trap-exit charge for a dead thread

	case SysYield:
		// Voluntary relinquish: goes to the back of the queue. Not counted
		// as an involuntary suspension and performs no RAS check (a
		// syscall can never lie inside an atomic sequence).
		k.chargeKernel(uint64(k.Profile.TrapExitCycles))
		t.State = StateReady
		k.runq = append(k.runq, t)
		k.cur = nil
		return

	case SysWrite:
		k.Console = append(k.Console, a0)

	case SysRasRegister:
		// The range is vetted before it is trusted (verify.go): a
		// malformed sequence — or a kernel without registration support —
		// fails the call, and the thread package overwrites the sequence
		// with a conventional mechanism (§3.1).
		if err := k.RegisterSequence(t.AS, a0, a1); err != nil {
			t.Ctx.Regs[isa.RegV0] = ^isa.Word(0)
		} else {
			t.Ctx.Regs[isa.RegV0] = 0
		}

	case SysTas:
		// Kernel-emulated Test-And-Set (§2.3): the read-modify-write runs
		// with interrupts disabled. A timeslice that expires inside the
		// trap is delivered on the way out — the effect §5.3 blames for
		// inflated critical sections.
		k.Stats.EmulTraps++
		k.trace(TraceEmulTrap, t, uint64(a0))
		k.chargeKernel(uint64(k.Profile.EmulTASCycles))
		old, f := k.M.Mem.LoadWord(a0)
		if f == nil {
			f = k.M.Mem.StoreWord(a0, 1)
		}
		if f != nil {
			if f.Kind == vmach.FaultNotPresent {
				k.servicePage(f.Addr)
				old, _ = k.M.Mem.LoadWord(a0)
				_ = k.M.Mem.StoreWord(a0, 1)
			} else {
				t.State = StateFaulted
				t.Fault = f
				k.cur = nil
				return
			}
		}
		t.Ctx.Regs[isa.RegV0] = old

	case SysThreadCreate:
		// The child inherits the caller's address space.
		nt := k.SpawnAS(t.AS, a0, a2, a1)
		t.Ctx.Regs[isa.RegV0] = isa.Word(nt.ID)

	case SysTime:
		t.Ctx.Regs[isa.RegV0] = isa.Word(k.M.Stats.Cycles)
		t.Ctx.Regs[isa.RegV1] = isa.Word(k.M.Stats.Cycles >> 32)

	case SysSetHandler:
		k.userHandler, k.hasUserHandler = a0, true

	case SysCPU:
		t.Ctx.Regs[isa.RegV0] = isa.Word(k.CPUID)

	case SysThreadAlive:
		// The RME liveness oracle, answered with interrupts disabled: is
		// the named thread still able to run? Out-of-range IDs are dead —
		// a lock word naming no thread is orphaned.
		alive := isa.Word(0)
		if k.ThreadAlive(int(int32(a0))) {
			alive = 1
		}
		t.Ctx.Regs[isa.RegV0] = alive

	case SysThreadAliveG:
		// Cross-CPU liveness oracle. Defer to the SMP complex when
		// attached; otherwise global ids are local ids.
		alive := isa.Word(0)
		gtid := int(int32(a0))
		if k.PeerAlive != nil {
			if gtid >= 0 && k.PeerAlive(gtid) {
				alive = 1
			}
		} else if gtid >= 0 && gtid < len(k.threads) && k.ThreadAlive(gtid) {
			alive = 1
		}
		t.Ctx.Regs[isa.RegV0] = alive

	case SysMutexSlow:
		// The inlined designated sequence found the mutex held (Figure 5's
		// SlowAcquire). Re-examine under disabled interrupts: it may have
		// been released meanwhile.
		k.Stats.SlowAcquires++
		word, f := k.M.Mem.LoadWord(a0)
		if f != nil && f.Kind == vmach.FaultNotPresent {
			k.servicePage(f.Addr)
			word, f = k.M.Mem.LoadWord(a0)
		}
		if f != nil {
			t.State = StateFaulted
			t.Fault = f
			k.cur = nil
			return
		}
		if word == 0 {
			_ = k.M.Mem.StoreWord(a0, MutexLocked)
			break // acquired after all
		}
		// Mark waiters and block; the releaser hands the mutex over, so
		// when this thread resumes it owns the mutex.
		_ = k.M.Mem.StoreWord(a0, word|MutexWaiters)
		k.chargeKernel(uint64(k.Profile.TrapExitCycles))
		t.State = StateBlocked
		k.waitq[a0] = append(k.waitq[a0], t)
		k.blocked++
		k.cur = nil
		return

	case SysMutexWake:
		// The inlined release sequence saw the waiters bit. Hand the mutex
		// to the first waiter, or clear it if the queue emptied.
		q := k.waitq[a0]
		if len(q) == 0 {
			_ = k.M.Mem.StoreWord(a0, 0)
			break
		}
		k.Stats.MutexWakes++
		wt := q[0]
		q = q[1:]
		word := isa.Word(MutexLocked)
		if len(q) > 0 {
			word |= MutexWaiters
			k.waitq[a0] = q
		} else {
			delete(k.waitq, a0)
		}
		_ = k.M.Mem.StoreWord(a0, word)
		wt.State = StateReady
		k.blocked--
		k.runq = append(k.runq, wt)

	default:
		t.State = StateFaulted
		t.Fault = &vmach.Fault{Kind: vmach.FaultIllegal, Addr: ev.SyscallPC}
		k.cur = nil
		return
	}

	k.chargeKernel(uint64(k.Profile.TrapExitCycles))
	// Deliver a pending timer interrupt on the way out of the kernel.
	if k.M.Stats.Cycles >= k.sliceAt {
		k.preempt()
	}
}

// Micros reports elapsed virtual time in microseconds.
func (k *Kernel) Micros() float64 { return k.M.Micros() }
