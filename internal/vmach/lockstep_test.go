package vmach

import (
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/isa"
)

// stepOracle is the interpreter loop as it stood before the fetch fast
// path (fetch.go): every fetch goes through Memory.LoadWord and every
// instruction through isa.Decode and isa.ClassOf, with no cache of
// either. FuzzStepLockstep runs it in lockstep with Step. Keep it
// verbatim: it is the reference Step must match, not a second
// implementation to maintain.
func (m *Machine) stepOracle(ctx *Context) Event {
	w, f := m.Mem.LoadWord(ctx.PC)
	if f != nil {
		return Event{Kind: EventFault, Fault: f}
	}
	inst := isa.Decode(w)
	class := isa.ClassOf(inst)
	m.Stats.Instructions++

	reg := func(r int) isa.Word { return ctx.Regs[r] }
	set := func(r int, v isa.Word) {
		if r != isa.RegZero {
			ctx.Regs[r] = v
		}
	}
	next := ctx.PC + 4

	switch inst.Op {
	case isa.OpSpecial:
		switch inst.Funct {
		case isa.FnSLL:
			set(inst.Rd, reg(inst.Rt)<<uint(inst.Shamt))
		case isa.FnSRL:
			set(inst.Rd, reg(inst.Rt)>>uint(inst.Shamt))
		case isa.FnSRA:
			set(inst.Rd, isa.Word(int32(reg(inst.Rt))>>uint(inst.Shamt)))
		case isa.FnADD:
			set(inst.Rd, reg(inst.Rs)+reg(inst.Rt))
		case isa.FnSUB:
			set(inst.Rd, reg(inst.Rs)-reg(inst.Rt))
		case isa.FnAND:
			set(inst.Rd, reg(inst.Rs)&reg(inst.Rt))
		case isa.FnOR:
			set(inst.Rd, reg(inst.Rs)|reg(inst.Rt))
		case isa.FnXOR:
			set(inst.Rd, reg(inst.Rs)^reg(inst.Rt))
		case isa.FnNOR:
			set(inst.Rd, ^(reg(inst.Rs) | reg(inst.Rt)))
		case isa.FnSLT:
			if int32(reg(inst.Rs)) < int32(reg(inst.Rt)) {
				set(inst.Rd, 1)
			} else {
				set(inst.Rd, 0)
			}
		case isa.FnSLTU:
			if reg(inst.Rs) < reg(inst.Rt) {
				set(inst.Rd, 1)
			} else {
				set(inst.Rd, 0)
			}
		case isa.FnJR:
			next = reg(inst.Rs)
		case isa.FnJALR:
			set(inst.Rd, ctx.PC+4)
			next = reg(inst.Rs)
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
		set(inst.Rt, reg(inst.Rs)+isa.Word(inst.Imm))
	case isa.OpSLTI:
		if int32(reg(inst.Rs)) < inst.Imm {
			set(inst.Rt, 1)
		} else {
			set(inst.Rt, 0)
		}
	case isa.OpSLTIU:
		if reg(inst.Rs) < isa.Word(inst.Imm) {
			set(inst.Rt, 1)
		} else {
			set(inst.Rt, 0)
		}
	case isa.OpANDI:
		set(inst.Rt, reg(inst.Rs)&inst.Uimm)
	case isa.OpORI:
		set(inst.Rt, reg(inst.Rs)|inst.Uimm)
	case isa.OpXORI:
		set(inst.Rt, reg(inst.Rs)^inst.Uimm)
	case isa.OpLUI:
		set(inst.Rt, inst.Uimm<<16)

	case isa.OpLW:
		addr := reg(inst.Rs) + isa.Word(inst.Imm)
		v, f := m.Mem.LoadWord(addr)
		if f != nil {
			return Event{Kind: EventFault, Fault: f}
		}
		set(inst.Rt, v)
		m.Stats.Loads++
		m.coherent(addr, false)

	case isa.OpSW:
		addr := reg(inst.Rs) + isa.Word(inst.Imm)
		if f := m.Mem.StoreWord(addr, reg(inst.Rt)); f != nil {
			return Event{Kind: EventFault, Fault: f}
		}
		m.Stats.Stores++
		m.coherent(addr, true)
		m.writeBuffer()
		// A store ends an i860 hardware restartable sequence.
		ctx.LockActive = false

	case isa.OpBEQ:
		if reg(inst.Rs) == reg(inst.Rt) {
			next = branchTarget(ctx.PC, inst.Imm)
		}
	case isa.OpBNE:
		if reg(inst.Rs) != reg(inst.Rt) {
			next = branchTarget(ctx.PC, inst.Imm)
		}
	case isa.OpBLEZ:
		if int32(reg(inst.Rs)) <= 0 {
			next = branchTarget(ctx.PC, inst.Imm)
		}
	case isa.OpBGTZ:
		if int32(reg(inst.Rs)) > 0 {
			next = branchTarget(ctx.PC, inst.Imm)
		}

	case isa.OpJ:
		next = inst.Targ << 2
	case isa.OpJAL:
		set(isa.RegRA, ctx.PC+4)
		next = inst.Targ << 2

	case isa.OpTAS, isa.OpXCHG, isa.OpFAA:
		if !m.Profile.HasInterlocked {
			return m.illegal(ctx)
		}
		addr := reg(inst.Rs) + isa.Word(inst.Imm)
		old, f := m.Mem.LoadWord(addr)
		if f != nil {
			return Event{Kind: EventFault, Fault: f}
		}
		var nw isa.Word
		switch inst.Op {
		case isa.OpTAS:
			nw = 1
		case isa.OpXCHG:
			nw = reg(inst.Rt)
		case isa.OpFAA:
			nw = old + 1
		}
		if f := m.Mem.StoreWord(addr, nw); f != nil {
			return Event{Kind: EventFault, Fault: f}
		}
		set(inst.Rt, old)
		m.Stats.Interlocked++
		m.coherent(addr, true)

	case isa.OpLL:
		if !m.Profile.HasLLSC {
			return m.illegal(ctx)
		}
		addr := reg(inst.Rs) + isa.Word(inst.Imm)
		v, f := m.Mem.LoadWord(addr)
		if f != nil {
			return Event{Kind: EventFault, Fault: f}
		}
		set(inst.Rt, v)
		m.Stats.Loads++
		m.resValid, m.resAddr = true, addr
		m.coherent(addr, false)

	case isa.OpSC:
		if !m.Profile.HasLLSC {
			return m.illegal(ctx)
		}
		addr := reg(inst.Rs) + isa.Word(inst.Imm)
		if m.resValid && m.resAddr == addr {
			if f := m.Mem.StoreWord(addr, reg(inst.Rt)); f != nil {
				return Event{Kind: EventFault, Fault: f}
			}
			m.Stats.Stores++
			set(inst.Rt, 1)
			m.coherent(addr, true)
			m.writeBuffer()
			// Like sw, a successful sc ends an i860 sequence.
			ctx.LockActive = false
		} else {
			set(inst.Rt, 0)
		}
		m.resValid = false

	case isa.OpFLUSH:
		addr := reg(inst.Rs) + isa.Word(inst.Imm)
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

// Lockstep geometry: the program text sits on its own page, with two
// data pages above it; every page can be made not-present.
const (
	lsText     = 0x1000
	lsData     = 0x2000
	lsSpare    = 0x3000
	lsMaxInsts = 64
	lsMaxSteps = 600
)

// lsProfiles are the cost models the fuzzer picks from: no atomics, bus
// atomics plus ll/sc, the i860 lock bit, and a write buffer.
var lsProfiles = []func() *arch.Profile{
	arch.R3000,
	arch.SMP,
	arch.I860,
	func() *arch.Profile { return arch.R3000().WithWriteBuffer(2, 5) },
}

// lsBytes hands out the fuzz input a byte at a time, then a SplitMix64
// stream seeded from the whole input, so a short input still drives a
// long, varied run.
type lsBytes struct {
	b []byte
	i int
	x uint64
}

func newLSBytes(b []byte) *lsBytes {
	r := &lsBytes{b: b, x: uint64(len(b))}
	for _, c := range b {
		r.x = splitmix(r.x ^ uint64(c))
	}
	return r
}

func (r *lsBytes) next() byte {
	if r.i < len(r.b) {
		r.i++
		return r.b[r.i-1]
	}
	r.x = splitmix(r.x)
	return byte(r.x >> 56)
}

// lsRegs are the registers the generated code names: zero, four
// temporaries, and the three page bases.
var lsRegs = [8]int{isa.RegZero, isa.RegT0, isa.RegT1, isa.RegT2, isa.RegT3, isa.RegS0, isa.RegS1, isa.RegS2}

func (r *lsBytes) reg() int { return lsRegs[r.next()&7] }

// inst builds one instruction word: an ALU op, an immediate op, a memory
// reference (near a page base, sometimes unaligned, sometimes into the
// text), a branch or jump within the text, a fence or lockb, or a raw
// word that is most likely illegal.
func (r *lsBytes) inst(n int) isa.Word {
	switch k := r.next(); k % 8 {
	case 0, 1:
		functs := []uint32{isa.FnSLL, isa.FnSRL, isa.FnSRA, isa.FnADD, isa.FnSUB, isa.FnAND,
			isa.FnOR, isa.FnXOR, isa.FnNOR, isa.FnSLT, isa.FnSLTU, isa.FnJR, isa.FnJALR,
			isa.FnSYSCALL, isa.FnLANDMARK, 0x01}
		i := isa.R(functs[r.next()%uint8(len(functs))], r.reg(), r.reg(), r.reg())
		i.Shamt = int(r.next() & 31)
		return isa.Encode(i)
	case 2:
		ops := []uint32{isa.OpADDI, isa.OpSLTI, isa.OpSLTIU, isa.OpANDI, isa.OpORI, isa.OpXORI, isa.OpLUI}
		op := ops[r.next()%uint8(len(ops))]
		imm := int32(int8(r.next())) * int32(r.next()%5+1)
		return isa.Encode(isa.I(op, r.reg(), r.reg(), imm))
	case 3, 4:
		ops := []uint32{isa.OpLW, isa.OpSW, isa.OpLL, isa.OpSC, isa.OpTAS, isa.OpXCHG, isa.OpFAA, isa.OpFLUSH}
		op := ops[r.next()%uint8(len(ops))]
		bases := [4]int{isa.RegS0, isa.RegS1, isa.RegS2, isa.RegT0}
		off := int32(r.next()%64)*4 - 32
		if b := r.next(); b%4 == 0 {
			off += int32(b>>2%3) + 1
		}
		return isa.Encode(isa.I(op, r.reg(), bases[r.next()&3], off))
	case 5:
		ops := []uint32{isa.OpBEQ, isa.OpBNE, isa.OpBLEZ, isa.OpBGTZ}
		op := ops[r.next()&3]
		return isa.Encode(isa.I(op, r.reg(), r.reg(), int32(r.next()%17)-8))
	case 6:
		ops := []uint32{isa.OpJ, isa.OpJAL, isa.OpFENCE, isa.OpLOCKB}
		op := ops[r.next()&3]
		if op == isa.OpFENCE || op == isa.OpLOCKB {
			return isa.Encode(isa.Inst{Op: op})
		}
		return isa.Encode(isa.Jump(op, lsText+uint32(r.next()%uint8(n))*4))
	default:
		return isa.Word(r.next()) | isa.Word(r.next())<<8 | isa.Word(r.next())<<16 | isa.Word(r.next())<<24
	}
}

// lsSide is one half of the lockstep pair: two CPUs sharing a memory.
type lsSide struct {
	mem  *Memory
	cpus [2]*Machine
	ctxs [2]Context
	step func(*Machine, *Context) Event

	saved *lsImage
}

type lsImage struct {
	mem  *MemoryImage
	cpus [2]*MachineImage
	ctxs [2]Context
}

func (s *lsSide) capture() *lsImage {
	img := &lsImage{mem: s.mem.Capture(), ctxs: s.ctxs}
	for i, m := range s.cpus {
		img.cpus[i] = m.CaptureShared()
	}
	return img
}

func (s *lsSide) restore(img *lsImage) {
	for i, m := range s.cpus {
		if err := m.Restore(img.cpus[i]); err != nil {
			panic(err)
		}
	}
	s.mem.Restore(img.mem) // after the CPUs: each wiped it with an empty image
	s.ctxs = img.ctxs
}

// FuzzStepLockstep runs Step and stepOracle side by side on the same
// generated program and the same interleaving of two CPUs, mixing in
// what can leave a fetch cache stale: presence toggles, pokes into the
// text, snapshot restores and volatile crashes. After every instruction
// both sides must agree on the event, both contexts, both CPUs' stats and
// the whole memory image.
func FuzzStepLockstep(f *testing.F) {
	for p := range lsProfiles {
		f.Add([]byte{byte(p), lsMaxInsts - 1})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := newLSBytes(data)
		profile := lsProfiles[int(r.next())%len(lsProfiles)]
		n := int(r.next())%lsMaxInsts + 1
		text := make([]isa.Word, n+1)
		for i := 0; i < n; i++ {
			text[i] = r.inst(n)
		}
		text[n] = isa.Encode(isa.Break())
		var regs [isa.NumRegs]isa.Word
		for _, reg := range []int{isa.RegT0, isa.RegT1, isa.RegT2, isa.RegT3} {
			regs[reg] = isa.Word(int8(r.next()))
		}
		regs[isa.RegS0], regs[isa.RegS1], regs[isa.RegS2] = lsText, lsData, lsSpare

		newSide := func(predecode bool, step func(*Machine, *Context) Event) *lsSide {
			s := &lsSide{mem: NewMemory(), step: step}
			s.mem.LoadProgramWords(lsText, text)
			if predecode {
				s.mem.PredecodeText(lsText, len(text))
			}
			s.mem.EnablePersistence()
			for i := range s.cpus {
				s.cpus[i] = NewWithMemory(profile(), s.mem)
				s.ctxs[i] = Context{Regs: regs, PC: lsText + uint32(i)*4}
			}
			return s
		}
		sides := [2]*lsSide{
			newSide(true, (*Machine).Step),
			newSide(false, (*Machine).stepOracle),
		}
		pages := [3]uint32{lsText, lsData, lsSpare}

		var done [2]bool
		for step := 0; step < lsMaxSteps && !(done[0] && done[1]); step++ {
			c := r.next()
			switch c % 16 {
			case 0:
				pg := pages[r.next()%3]
				for _, s := range sides {
					s.mem.SetPresent(pg, !s.mem.Present(pg))
				}
			case 1:
				addr, w := lsText+uint32(r.next()%uint8(n+1))*4, r.inst(n)
				for _, s := range sides {
					s.mem.Poke(addr, w)
				}
			case 2:
				for _, s := range sides {
					s.saved = s.capture()
				}
			case 3:
				for _, s := range sides {
					if s.saved != nil {
						s.restore(s.saved)
					}
				}
			case 4:
				for _, s := range sides {
					s.mem.DiscardUnflushed()
				}
			case 5:
				h := uint64(r.next())
				for _, s := range sides {
					s.mem.DiscardUnflushedTorn(h)
				}
			case 6:
				for _, s := range sides {
					s.cpus[0].ClearReservation()
					s.cpus[1].ClearReservation()
				}
			}
			cpu := int(c>>4) & 1
			if done[cpu] {
				cpu ^= 1
			}
			var evs [2]Event
			for i, s := range sides {
				evs[i] = s.step(s.cpus[cpu], &s.ctxs[cpu])
			}
			if a, b := byValue(evs[0]), byValue(evs[1]); a != b {
				t.Fatalf("step %d cpu%d: event %+v, oracle %+v", step, cpu, a, b)
			}
			for i, s := range sides {
				switch ev := evs[i]; ev.Kind {
				case EventBreak:
					done[cpu] = true
				case EventFault:
					if ev.Fault.Kind == FaultNotPresent {
						s.mem.SetPresent(ev.Fault.Addr, true)
					} else {
						s.ctxs[cpu].PC += 4
					}
				}
				// A wild jump restarts the CPU at the top of the text, so
				// that the run does not spin on faults or empty pages.
				if pc := s.ctxs[cpu].PC; pc&3 != 0 || pc < lsText || pc >= lsSpare+PageSize {
					s.ctxs[cpu].PC = lsText
				}
			}
			a, b := sides[0], sides[1]
			if a.ctxs != b.ctxs {
				t.Fatalf("step %d cpu%d: contexts %+v, oracle %+v", step, cpu, a.ctxs, b.ctxs)
			}
			for i := range a.cpus {
				if a.cpus[i].Stats != b.cpus[i].Stats {
					t.Fatalf("step %d: cpu%d stats %+v, oracle %+v", step, i, a.cpus[i].Stats, b.cpus[i].Stats)
				}
			}
			if !sameImage(a.mem.Capture(), b.mem.Capture()) {
				t.Fatalf("step %d cpu%d: memory images differ", step, cpu)
			}
		}
	})
}

// sameImage compares two memory images field by field; it is
// reflect.DeepEqual without the reflection, which the fuzzer's per-step
// comparison of whole pages cannot afford.
func sameImage(a, b *MemoryImage) bool {
	return a.PageFaults == b.PageFaults && a.Persist == b.Persist &&
		slices.Equal(a.Pages, b.Pages) && slices.Equal(a.NotPresent, b.NotPresent) &&
		slices.Equal(a.NVLines, b.NVLines) && slices.Equal(a.PendingLines, b.PendingLines)
}

// lsEvent is an event with its fault by value, so events compare with ==.
type lsEvent struct {
	Event
	Fault Fault
}

func byValue(ev Event) lsEvent {
	v := lsEvent{Event: ev}
	if ev.Fault != nil {
		v.Fault, v.Event.Fault = *ev.Fault, nil
	}
	return v
}
