package vmach

import (
	"fmt"
	"slices"

	"repro/internal/arch"
	"repro/internal/isa"
)

// Context is the user-visible CPU state of one thread: the register file,
// the program counter, and the i860-style lock bit.
type Context struct {
	Regs [isa.NumRegs]isa.Word
	PC   uint32

	// i860-style hardware restartable sequence state (§7): LockActive is
	// the PSW bit; LockPC is where the kernel must back the thread up to
	// if it is suspended while the bit is set; LockBudget is the remaining
	// cycle window before the hardware clears the bit on its own.
	LockActive bool
	LockPC     uint32
	LockBudget int
}

// EventKind classifies why Step returned control to the kernel.
type EventKind int

const (
	EventNone EventKind = iota
	EventSyscall
	EventBreak
	EventFault
)

// Event is the outcome of executing one instruction.
type Event struct {
	Kind  EventKind
	Fault *Fault // when Kind == EventFault
	// SyscallPC is the address of the syscall instruction; the kernel
	// resumes the thread at SyscallPC+4 after servicing it.
	SyscallPC uint32
}

// Stats accumulates dynamic execution counts.
type Stats struct {
	Instructions uint64
	Cycles       uint64
	Loads        uint64
	Stores       uint64
	Interlocked  uint64
	LockBStarts  uint64
	LockBExpired uint64
	// Write-buffer stalls (profiles with WriteBufferDepth > 0).
	WriteStalls      uint64
	WriteStallCycles uint64
	// SMP coherence accounting (zero on a plain uniprocessor): remote
	// memory references charged to this CPU and the extra cycles the
	// coherence cost model added to its clock.
	RMRs            uint64
	CoherenceCycles uint64
	// Persistence accounting: flush/fence instructions retired, lines made
	// durable by fences, and the NVM write-back cycles fences paid.
	Flushes        uint64
	Fences         uint64
	LinesPersisted uint64
	PersistCycles  uint64
}

// CoherenceHook prices one committed data-memory access when the machine
// is a CPU of an SMP complex (internal/vmach/smp). It returns the extra
// cycles the access costs beyond the instruction's class cost, and whether
// the access counted as a remote memory reference. A nil hook means
// uniprocessor semantics: every access is local and free.
type CoherenceHook interface {
	Access(addr uint32, write bool) (extra uint64, rmr bool)
}

// Machine executes instructions against a Context. On its own it is a pure
// uniprocessor: no concurrency is involved; the kernel multiplexes thread
// contexts onto this single interpreter. An SMP complex steps several
// Machines sharing one Memory, each Machine playing the role of one CPU
// with its own clock, stats, write buffer, and ll/sc reservation.
type Machine struct {
	Mem     *Memory
	Profile *arch.Profile
	Stats   Stats

	// Coherence, when non-nil, observes and prices every committed data
	// access (loads, stores, interlocked ops, ll/sc).
	Coherence CoherenceHook

	// wb holds the retire times (in cycles) of write-buffer entries still
	// draining to memory, oldest first.
	wb []uint64

	// ll/sc reservation: per-CPU (not per-thread) state, as on the R4000.
	// The kernel clears it on every dispatch; the SMP coherence layer
	// clears it when a remote CPU writes the reserved line.
	resValid bool
	resAddr  uint32

	// itlb, dtlb and stlb are one-entry TLBs for instruction fetch, data
	// loads and sw/sc stores, and scratch holds the decode of a word
	// fetched from outside the predecoded text (fetch.go): host-side
	// caches, in no snapshot.
	itlb, dtlb, stlb tlb
	scratch          decoded
}

// New creates a machine with fresh memory.
func New(p *arch.Profile) *Machine {
	return NewWithMemory(p, nil)
}

// NewWithMemory creates a machine backed by an existing memory, so several
// machines (the CPUs of an SMP complex) can share one physical memory. A
// nil mem allocates a fresh one.
func NewWithMemory(p *arch.Profile, mem *Memory) *Machine {
	if mem == nil {
		mem = NewMemory()
	}
	return &Machine{Mem: mem, Profile: p}
}

// Fork returns a copy of the machine over mem, a fork of its memory: the
// same profile, statistics, write-buffer queue and ll/sc reservation,
// with no coherence hook and cold TLBs.
func (m *Machine) Fork(mem *Memory) *Machine {
	return &Machine{
		Mem:      mem,
		Profile:  m.Profile,
		Stats:    m.Stats,
		wb:       slices.Clone(m.wb),
		resValid: m.resValid,
		resAddr:  m.resAddr,
	}
}

// ClearReservation invalidates the machine's ll/sc reservation (context
// switch, trap return, or a remote write to the reserved line).
func (m *Machine) ClearReservation() { m.resValid = false }

// Reservation returns the ll/sc reservation address and whether one is
// armed.
func (m *Machine) Reservation() (uint32, bool) { return m.resAddr, m.resValid }

// coherent charges the coherence cost model for one committed data access.
func (m *Machine) coherent(addr uint32, write bool) {
	if m.Coherence == nil {
		return
	}
	extra, rmr := m.Coherence.Access(addr, write)
	m.Stats.Cycles += extra
	m.Stats.CoherenceCycles += extra
	if rmr {
		m.Stats.RMRs++
	}
}

// charge adds the cycle cost of one instruction of class c, honouring the
// context's hardware lock-bit budget.
func (m *Machine) charge(ctx *Context, c isa.Class) {
	cy := m.Profile.CyclesFor(c)
	m.Stats.Cycles += uint64(cy)
	if ctx.LockActive {
		ctx.LockBudget -= cy
		if ctx.LockBudget <= 0 {
			ctx.LockActive = false
			m.Stats.LockBExpired++
		}
	}
}

// Step executes one instruction. The returned Event is EventNone for
// ordinary instructions; syscalls, breaks and faults return control to the
// kernel with the PC *not* advanced past the triggering instruction
// (faults) or with SyscallPC recorded (syscalls).
func (m *Machine) Step(ctx *Context) Event {
	// Fetch through the fetch TLB, then decode through the text table's
	// entry for pc or, outside the table, the machine's scratch entry;
	// either is refilled unless its tag is the word just fetched
	// (fetch.go). Written out here: the compiler would not inline it.
	mem, pc := m.Mem, ctx.PC
	var w isa.Word
	if t := &m.itlb; pc&3 == 0 && pc>>PageShift == t.pn && t.gen == mem.gen {
		w = t.page.w[pc>>2&(PageWords-1)]
	} else {
		var f *Fault
		if w, f = t.refill(mem, pc); f != nil {
			return Event{Kind: EventFault, Fault: f}
		}
	}
	d := &m.scratch
	if i := (pc - mem.textBase) >> 2; i < uint32(len(mem.text)) {
		d = &mem.text[i]
	}
	if d.raw != w {
		*d = predecode(w)
	}
	class := isa.Class(d.class)
	m.Stats.Instructions++

	r := &ctx.Regs
	next := ctx.PC + 4

	switch d.op {
	case isa.OpSpecial:
		switch d.funct {
		case isa.FnSLL:
			ctx.set(d.rd, r[d.rt]<<d.shamt)
		case isa.FnSRL:
			ctx.set(d.rd, r[d.rt]>>d.shamt)
		case isa.FnSRA:
			ctx.set(d.rd, isa.Word(int32(r[d.rt])>>d.shamt))
		case isa.FnADD:
			ctx.set(d.rd, r[d.rs]+r[d.rt])
		case isa.FnSUB:
			ctx.set(d.rd, r[d.rs]-r[d.rt])
		case isa.FnAND:
			ctx.set(d.rd, r[d.rs]&r[d.rt])
		case isa.FnOR:
			ctx.set(d.rd, r[d.rs]|r[d.rt])
		case isa.FnXOR:
			ctx.set(d.rd, r[d.rs]^r[d.rt])
		case isa.FnNOR:
			ctx.set(d.rd, ^(r[d.rs] | r[d.rt]))
		case isa.FnSLT:
			ctx.set(d.rd, b2w(int32(r[d.rs]) < int32(r[d.rt])))
		case isa.FnSLTU:
			ctx.set(d.rd, b2w(r[d.rs] < r[d.rt]))
		case isa.FnJR:
			next = r[d.rs]
		case isa.FnJALR:
			// Link first: with rd == rs the jump goes to the link value.
			ctx.set(d.rd, ctx.PC+4)
			next = r[d.rs]
		case isa.FnSYSCALL:
			m.charge(ctx, class)
			ev := Event{Kind: EventSyscall, SyscallPC: ctx.PC}
			ctx.PC += 4
			return ev
		case isa.FnBREAK:
			m.charge(ctx, class)
			return Event{Kind: EventBreak}
		case isa.FnLANDMARK:
			// Non-destructive no-op; exists only to be recognized by the
			// kernel's designated-sequence check.
		default:
			return m.illegal(ctx)
		}

	case isa.OpADDI:
		ctx.set(d.rt, r[d.rs]+isa.Word(d.imm))
	case isa.OpSLTI:
		ctx.set(d.rt, b2w(int32(r[d.rs]) < d.imm))
	case isa.OpSLTIU:
		ctx.set(d.rt, b2w(r[d.rs] < isa.Word(d.imm)))
	case isa.OpANDI:
		ctx.set(d.rt, r[d.rs]&d.uimm())
	case isa.OpORI:
		ctx.set(d.rt, r[d.rs]|d.uimm())
	case isa.OpXORI:
		ctx.set(d.rt, r[d.rs]^d.uimm())
	case isa.OpLUI:
		ctx.set(d.rt, d.uimm()<<16)

	case isa.OpLW:
		addr := r[d.rs] + isa.Word(d.imm)
		v, f := m.dtlb.load(m.Mem, addr)
		if f != nil {
			return Event{Kind: EventFault, Fault: f}
		}
		ctx.set(d.rt, v)
		m.Stats.Loads++
		m.coherent(addr, false)

	case isa.OpSW:
		addr := r[d.rs] + isa.Word(d.imm)
		if f := m.stlb.store(m.Mem, addr, r[d.rt]); f != nil {
			return Event{Kind: EventFault, Fault: f}
		}
		m.Stats.Stores++
		m.coherent(addr, true)
		m.writeBuffer()
		// A store ends an i860 hardware restartable sequence.
		ctx.LockActive = false

	case isa.OpBEQ:
		if r[d.rs] == r[d.rt] {
			next = branchTarget(ctx.PC, d.imm)
		}
	case isa.OpBNE:
		if r[d.rs] != r[d.rt] {
			next = branchTarget(ctx.PC, d.imm)
		}
	case isa.OpBLEZ:
		if int32(r[d.rs]) <= 0 {
			next = branchTarget(ctx.PC, d.imm)
		}
	case isa.OpBGTZ:
		if int32(r[d.rs]) > 0 {
			next = branchTarget(ctx.PC, d.imm)
		}

	case isa.OpJ:
		next = d.targ() << 2
	case isa.OpJAL:
		ctx.set(isa.RegRA, ctx.PC+4)
		next = d.targ() << 2

	case isa.OpTAS, isa.OpXCHG, isa.OpFAA:
		if !m.Profile.HasInterlocked {
			return m.illegal(ctx)
		}
		addr := r[d.rs] + isa.Word(d.imm)
		old, f := m.Mem.LoadWord(addr)
		if f != nil {
			return Event{Kind: EventFault, Fault: f}
		}
		var nw isa.Word
		switch d.op {
		case isa.OpTAS:
			nw = 1
		case isa.OpXCHG:
			nw = r[d.rt]
		case isa.OpFAA:
			nw = old + 1
		}
		if f := m.Mem.StoreWord(addr, nw); f != nil {
			return Event{Kind: EventFault, Fault: f}
		}
		ctx.set(d.rt, old)
		m.Stats.Interlocked++
		m.coherent(addr, true)

	case isa.OpLL:
		if !m.Profile.HasLLSC {
			return m.illegal(ctx)
		}
		addr := r[d.rs] + isa.Word(d.imm)
		v, f := m.dtlb.load(m.Mem, addr)
		if f != nil {
			return Event{Kind: EventFault, Fault: f}
		}
		ctx.set(d.rt, v)
		m.Stats.Loads++
		m.resValid, m.resAddr = true, addr
		m.coherent(addr, false)

	case isa.OpSC:
		if !m.Profile.HasLLSC {
			return m.illegal(ctx)
		}
		addr := r[d.rs] + isa.Word(d.imm)
		if m.resValid && m.resAddr == addr {
			if f := m.stlb.store(m.Mem, addr, r[d.rt]); f != nil {
				return Event{Kind: EventFault, Fault: f}
			}
			m.Stats.Stores++
			ctx.set(d.rt, 1)
			m.coherent(addr, true)
			m.writeBuffer()
			// Like sw, a successful sc ends an i860 sequence.
			ctx.LockActive = false
		} else {
			ctx.set(d.rt, 0)
		}
		m.resValid = false

	case isa.OpFLUSH:
		addr := r[d.rs] + isa.Word(d.imm)
		if _, f := m.Mem.FlushLine(addr); f != nil {
			return Event{Kind: EventFault, Fault: f}
		}
		m.Stats.Flushes++

	case isa.OpFENCE:
		// The fence cannot retire until every initiated write-back has
		// reached NVM; it pays the per-line drain latency on the spot.
		n := uint64(m.Mem.Fence())
		m.Stats.Fences++
		m.Stats.LinesPersisted += n
		drain := n * uint64(m.Profile.PersistDrainCycles)
		m.Stats.Cycles += drain
		m.Stats.PersistCycles += drain

	case isa.OpLOCKB:
		if !m.Profile.HasLockBit {
			return m.illegal(ctx)
		}
		ctx.LockActive = true
		ctx.LockPC = ctx.PC
		ctx.LockBudget = m.Profile.LockBMaxCycles
		m.Stats.LockBStarts++

	default:
		return m.illegal(ctx)
	}

	m.charge(ctx, class)
	ctx.PC = next
	return Event{Kind: EventNone}
}

// set writes register r; writes to the zero register are discarded.
func (c *Context) set(r uint8, v isa.Word) {
	if r != isa.RegZero {
		c.Regs[r] = v
	}
}

// b2w is a comparison's result as a register value.
func b2w(b bool) isa.Word {
	if b {
		return 1
	}
	return 0
}

// writeBuffer models a write-through cache's store buffer (§5.1): each
// store enqueues an entry that retires WriteBufferDrainCycles later; a
// store against a full buffer stalls the processor until the oldest entry
// drains. Disabled when the profile's depth is zero.
func (m *Machine) writeBuffer() {
	p := m.Profile
	if p.WriteBufferDepth <= 0 {
		return
	}
	now := m.Stats.Cycles
	for len(m.wb) > 0 && m.wb[0] <= now {
		m.wb = m.wb[1:]
	}
	if len(m.wb) >= p.WriteBufferDepth {
		stall := m.wb[0] - now
		m.Stats.Cycles += stall
		m.Stats.WriteStalls++
		m.Stats.WriteStallCycles += stall
		now = m.Stats.Cycles
		m.wb = m.wb[1:]
	}
	last := now
	if len(m.wb) > 0 && m.wb[len(m.wb)-1] > last {
		last = m.wb[len(m.wb)-1]
	}
	m.wb = append(m.wb, last+uint64(p.WriteBufferDrainCycles))
}

func (m *Machine) illegal(ctx *Context) Event {
	return Event{Kind: EventFault, Fault: &Fault{FaultIllegal, ctx.PC}}
}

func branchTarget(pc uint32, off int32) uint32 {
	return uint32(int64(pc) + 4 + int64(off)*4)
}

// Micros converts the machine's accumulated cycle count to microseconds.
func (m *Machine) Micros() float64 { return m.Profile.Micros(m.Stats.Cycles) }

// String summarizes the machine state for diagnostics.
func (m *Machine) String() string {
	return fmt.Sprintf("machine[%s]: %d instrs, %d cycles",
		m.Profile.Name, m.Stats.Instructions, m.Stats.Cycles)
}
