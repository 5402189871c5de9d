package kernel

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"repro/internal/isa"
	"repro/internal/vmach"
)

// ThreadImage is the captured state of one thread: everything the scheduler
// and the recovery machinery know about it, including the watchdog streak.
// FaultKind is -1 when the thread has no recorded fault.
type ThreadImage struct {
	AS          int32
	Ctx         vmach.Context
	State       ThreadState
	ExitCode    isa.Word
	FaultKind   int32
	FaultAddr   uint32
	Suspensions uint64
	Restarts    uint64
	NeedsCheck  bool
	SeqPC       uint32
	SeqRestarts uint64
	Extended    bool
	BoostSlice  bool
}

// RasImage is one address space's registered sequence (Registration
// strategy). Entries are sorted by address space in a capture.
type RasImage struct {
	AS            int32
	Start, Length uint32
}

// RangeImage is one entry of a MultiRegistration table, kept in
// registration order (the check is a linear scan, so order is state).
type RangeImage struct {
	Start, Length uint32
}

// WaitImage is one mutex wait queue: the mutex word address and the
// blocked thread IDs in FIFO order. Queues are sorted by address in a
// capture.
type WaitImage struct {
	Addr uint32
	TIDs []int32
}

// Snapshot is a value snapshot of a whole kernel-plus-machine: a
// checkpoint. Capturing after a crash (or at any deterministic step cut,
// see RunSteps) and restoring into a fresh kernel replays the remainder of
// the run exactly — same stats, same console, same memory.
//
// Harness state is deliberately absent: the tracer, death callbacks,
// memory watchpoints, and the fault injector are wiring, not machine
// state; the restorer supplies them through Config. The injector's cursors
// (Steps, Stats.Switches, Stats.Suspensions) are captured, so a stateless
// seeded plan resumes mid-schedule without replaying spent faults.
type Snapshot struct {
	Strategy       string // must match the restoring Config's strategy
	Quantum        uint64
	SliceAt        uint64
	Steps          uint64
	CurID          int32 // running thread ID, -1 between timeslices
	UserHandler    uint32
	HasUserHandler bool
	Stats          Stats
	Console        []isa.Word
	Threads        []ThreadImage
	RunQ           []int32
	Ras            []RasImage
	MultiRanges    []RangeImage
	Waits          []WaitImage
	Machine        *vmach.MachineImage
}

// Capture snapshots the kernel and its machine. The snapshot is a value
// copy: the kernel may keep running without disturbing it.
func (k *Kernel) Capture() *Snapshot { return k.capture(k.M.Capture()) }

// CaptureShared is Capture with an empty memory image, for kernels over a
// shared memory that the caller captures once (vmach.Machine.CaptureShared).
func (k *Kernel) CaptureShared() *Snapshot { return k.capture(k.M.CaptureShared()) }

func (k *Kernel) capture(m *vmach.MachineImage) *Snapshot {
	s := &Snapshot{
		Strategy:       k.Strategy.Name(),
		Quantum:        k.Quantum,
		SliceAt:        k.sliceAt,
		Steps:          k.steps,
		CurID:          -1,
		UserHandler:    k.userHandler,
		HasUserHandler: k.hasUserHandler,
		Stats:          k.Stats,
		Console:        append([]isa.Word(nil), k.Console...),
		Machine:        m,
	}
	if k.cur != nil {
		s.CurID = int32(k.cur.ID)
	}
	for _, t := range k.threads {
		ti := ThreadImage{
			AS:          int32(t.AS),
			Ctx:         t.Ctx,
			State:       t.State,
			ExitCode:    t.ExitCode,
			FaultKind:   -1,
			Suspensions: t.Suspensions,
			Restarts:    t.Restarts,
			NeedsCheck:  t.needsCheck,
			SeqPC:       t.seqPC,
			SeqRestarts: t.seqRestarts,
			Extended:    t.extended,
			BoostSlice:  t.boostSlice,
		}
		if t.Fault != nil {
			ti.FaultKind = int32(t.Fault.Kind)
			ti.FaultAddr = t.Fault.Addr
		}
		s.Threads = append(s.Threads, ti)
	}
	for _, t := range k.runq {
		s.RunQ = append(s.RunQ, int32(t.ID))
	}
	for as, r := range k.rasBySpace {
		s.Ras = append(s.Ras, RasImage{AS: int32(as), Start: r.start, Length: r.length})
	}
	sort.Slice(s.Ras, func(i, j int) bool { return s.Ras[i].AS < s.Ras[j].AS })
	if mr, ok := k.Strategy.(*MultiRegistration); ok {
		for _, r := range mr.ranges {
			s.MultiRanges = append(s.MultiRanges, RangeImage{Start: r.start, Length: r.length})
		}
	}
	for addr, q := range k.waitq {
		w := WaitImage{Addr: addr}
		for _, t := range q {
			w.TIDs = append(w.TIDs, int32(t.ID))
		}
		s.Waits = append(s.Waits, w)
	}
	sort.Slice(s.Waits, func(i, j int) bool { return s.Waits[i].Addr < s.Waits[j].Addr })
	return s
}

// Fork returns an exact copy of the kernel built from cfg: the copy runs
// on from the same state and ends where the original would, sticky halt
// (a watchdog abort or an injected crash pending its next step) included,
// which a Snapshot does not carry. Memory is shared copy-on-write rather
// than copied: the copy runs over cfg.Memory, which must be a fork of the
// kernel's memory (vmach.Memory.Fork), or over a new fork when it is nil.
// As with Restore, cfg must name the kernel's strategy and profile, and
// supplies the harness wiring: tracer, injector, watchdog.
func (k *Kernel) Fork(cfg Config) (*Kernel, error) {
	cfg = defaulted(cfg)
	if got := cfg.Strategy.Name(); got != k.Strategy.Name() {
		return nil, fmt.Errorf("kernel: fork of a %q kernel with strategy %q", k.Strategy.Name(), got)
	}
	if cfg.Profile.Name != k.Profile.Name {
		return nil, &vmach.RestoreError{Want: k.Profile.Name, Got: cfg.Profile.Name}
	}
	mem := cfg.Memory
	if mem == nil {
		mem = k.M.Mem.Fork()
	}
	c := newKernel(cfg, k.M.Fork(mem))
	c.Quantum = k.Quantum
	c.steps = k.steps
	c.livelock, c.crashed = k.livelock, k.crashed
	c.sliceAt = k.sliceAt
	c.userHandler, c.hasUserHandler = k.userHandler, k.hasUserHandler
	c.Stats = k.Stats
	c.Console = slices.Clone(k.Console)
	c.threads = make([]*Thread, len(k.threads))
	for i, t := range k.threads {
		ct := *t
		c.threads[i] = &ct
	}
	// Threads are named by ID, their index in the table.
	own := func(ts []*Thread) []*Thread {
		out := make([]*Thread, len(ts))
		for i, t := range ts {
			out[i] = c.threads[t.ID]
		}
		return out
	}
	if k.cur != nil {
		c.cur = c.threads[k.cur.ID]
	}
	c.runq = own(k.runq)
	maps.Copy(c.rasBySpace, k.rasBySpace)
	if mr, ok := k.Strategy.(*MultiRegistration); ok {
		c.Strategy.(*MultiRegistration).ranges = slices.Clone(mr.ranges)
	}
	for addr, q := range k.waitq {
		c.waitq[addr] = own(q)
	}
	c.blocked = k.blocked
	return c, nil
}

// Restore builds a kernel from cfg and installs the snapshot's state into
// it. The config must name the same strategy and machine profile the
// snapshot was captured under (a silent mismatch would diverge the
// replay); tracers, death callbacks, and fault injectors come fresh from
// cfg. A crash recorded at capture time is not part of the snapshot — the
// restored kernel resumes as if the crash never happened, which is the
// whole point. A kernel restored over a memory cfg supplies (the shared
// memory of an SMP complex) leaves that memory to its owner: the
// snapshot's memory image, empty in a CaptureShared snapshot, is not
// installed.
func Restore(cfg Config, s *Snapshot) (*Kernel, error) {
	k := New(cfg)
	if got := k.Strategy.Name(); got != s.Strategy {
		return nil, fmt.Errorf("kernel: snapshot captured under strategy %q, restored with %q", s.Strategy, got)
	}
	restore := k.M.Restore
	if cfg.Memory != nil {
		restore = k.M.RestoreShared
	}
	if err := restore(s.Machine); err != nil {
		return nil, err
	}
	k.Quantum = s.Quantum
	k.sliceAt = s.SliceAt
	k.steps = s.Steps
	k.userHandler = s.UserHandler
	k.hasUserHandler = s.HasUserHandler
	k.Stats = s.Stats
	k.Console = append([]isa.Word(nil), s.Console...)

	for i := range s.Threads {
		ti := &s.Threads[i]
		t := &Thread{
			ID:          i,
			AS:          int(ti.AS),
			Ctx:         ti.Ctx,
			State:       ti.State,
			ExitCode:    ti.ExitCode,
			Suspensions: ti.Suspensions,
			Restarts:    ti.Restarts,
			needsCheck:  ti.NeedsCheck,
			seqPC:       ti.SeqPC,
			seqRestarts: ti.SeqRestarts,
			extended:    ti.Extended,
			boostSlice:  ti.BoostSlice,
		}
		if ti.FaultKind >= 0 {
			t.Fault = &vmach.Fault{Kind: vmach.FaultKind(ti.FaultKind), Addr: ti.FaultAddr}
		}
		k.threads = append(k.threads, t)
	}
	thread := func(id int32, where string) (*Thread, error) {
		if id < 0 || int(id) >= len(k.threads) {
			return nil, fmt.Errorf("kernel: snapshot %s names thread %d of %d", where, id, len(k.threads))
		}
		return k.threads[id], nil
	}
	if s.CurID >= 0 {
		t, err := thread(s.CurID, "current")
		if err != nil {
			return nil, err
		}
		k.cur = t
	}
	for _, id := range s.RunQ {
		t, err := thread(id, "run queue")
		if err != nil {
			return nil, err
		}
		k.runq = append(k.runq, t)
	}
	for _, r := range s.Ras {
		k.rasBySpace[int(r.AS)] = rasRange{r.Start, r.Length}
	}
	if len(s.MultiRanges) > 0 {
		mr, ok := k.Strategy.(*MultiRegistration)
		if !ok {
			return nil, fmt.Errorf("kernel: snapshot carries a multi-registration table but the strategy is %q", k.Strategy.Name())
		}
		for _, r := range s.MultiRanges {
			mr.AddRange(r.Start, r.Length)
		}
	}
	for _, w := range s.Waits {
		q := make([]*Thread, 0, len(w.TIDs))
		for _, id := range w.TIDs {
			t, err := thread(id, "wait queue")
			if err != nil {
				return nil, err
			}
			q = append(q, t)
		}
		k.waitq[w.Addr] = q
		k.blocked += len(q)
	}
	return k, nil
}
