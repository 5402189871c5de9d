package vmach

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"repro/internal/arch"
	"repro/internal/isa"
)

// cowData and cowStack are two data pages the copy-on-write tests write.
const (
	cowData  = 0x2000
	cowStack = 0x3000
)

// storeProgram is a machine over a fresh memory whose text stores s1 at
// 0(s0) with each of sw, sc and the three interlocked ops, and breaks.
// It runs on the SMP profile, which has both ll/sc and the interlocked
// ops.
func storeProgram() (*Machine, *Context) {
	m := New(arch.SMP())
	text := []isa.Word{
		isa.Encode(isa.I(isa.OpSW, isa.RegS1, isa.RegS0, 0)),
		isa.Encode(isa.I(isa.OpLL, isa.RegT0, isa.RegS0, 0)),
		isa.Encode(isa.I(isa.OpSC, isa.RegS1, isa.RegS0, 0)),
		isa.Encode(isa.I(isa.OpTAS, isa.RegT0, isa.RegS0, 0)),
		isa.Encode(isa.I(isa.OpXCHG, isa.RegS1, isa.RegS0, 0)),
		isa.Encode(isa.I(isa.OpFAA, isa.RegT0, isa.RegS0, 0)),
		isa.Encode(isa.Break()),
	}
	m.Mem.LoadProgramWords(0x1000, text)
	m.Mem.PredecodeText(0x1000, len(text))
	return m, &Context{PC: 0x1000}
}

// TestForkedStoreDoesNotLeakToParent writes through every store path on
// one side of a fork — sw and sc through a store TLB filled before the
// fork, the interlocked ops, Poke — and checks that the other side still
// reads what it held at the fork, in both directions.
func TestForkedStoreDoesNotLeakToParent(t *testing.T) {
	for _, writeChild := range []bool{false, true} {
		m, ctx := storeProgram()
		ctx.Regs[isa.RegS0], ctx.Regs[isa.RegS1] = cowData, 7
		if ev := m.Step(ctx); ev.Kind != EventNone { // sw: fills the store TLB
			t.Fatalf("sw: %+v", ev)
		}
		m.Mem.Poke(cowStack, 1)
		before := m.Mem.Capture()

		child := m.Mem.Fork()
		writer, reader := m, child
		if writeChild {
			writer, reader = m.Fork(child), m.Mem
		}
		for i, v := range []isa.Word{11, 12, 13, 14, 15, 16} {
			ctx.PC = 0x1000 + uint32(i)*4
			ctx.Regs[isa.RegS1] = v
			if i == 2 { // sc needs the reservation the ll before it armed
				ctx.PC -= 4
				writer.Step(ctx)
			}
			if ev := writer.Step(ctx); ev.Kind != EventNone {
				t.Fatalf("store %d: %+v", i, ev)
			}
			if got := writer.Mem.Peek(cowData); got == 7 {
				t.Fatalf("store %d did not land on the writing side", i)
			}
			if got := reader.Peek(cowData); got != 7 {
				t.Fatalf("writeChild=%v: store %d leaked to the other side: %d, want 7", writeChild, i, got)
			}
		}
		writer.Mem.Poke(cowStack, 2)
		if !sameImage(reader.Capture(), before) {
			t.Errorf("writeChild=%v: the other side's memory changed", writeChild)
		}
	}
}

// digestBytes is the SHA-256 of what the memory writes for a state hash.
func digestBytes(m *Memory) []byte {
	h := sha256.New()
	m.WriteDigest(h)
	return h.Sum(nil)
}

// TestPageDigestClearedByEveryWriter caches every page digest, writes
// the memory one way, and compares the digest with that of a restored
// copy, whose digests are all computed afresh. A writer that left a
// stale digest behind makes the two differ.
func TestPageDigestClearedByEveryWriter(t *testing.T) {
	// torn is an h under which DiscardUnflushedTorn reverts the last
	// word of cowData's line.
	torn := uint64(0)
	for splitmix(torn^uint64(cowData>>LineShift))%(LineWords+1) == LineWords {
		torn++
	}
	type writer struct {
		name string
		// prep readies a memory whose digests are then cached; write
		// changes it.
		prep, write func(t *testing.T, m *Machine, ctx *Context)
	}
	step := func(pc uint32) func(t *testing.T, m *Machine, ctx *Context) {
		return func(t *testing.T, m *Machine, ctx *Context) {
			ctx.PC = pc
			if ev := m.Step(ctx); ev.Kind != EventNone {
				t.Fatalf("step at %#x: %+v", pc, ev)
			}
		}
	}
	sw := step(0x1000)
	dirtyLine := func(t *testing.T, m *Machine, _ *Context) {
		m.Mem.EnablePersistence()
		m.Mem.StoreWord(cowData+4*(LineWords-1), 99)
		m.Mem.FlushLine(cowData)
	}
	for _, w := range []writer{
		{"sw", nil, sw},
		{"sw-store-tlb-hit", sw, func(t *testing.T, m *Machine, ctx *Context) {
			ctx.Regs[isa.RegS1]++
			sw(t, m, ctx)
		}},
		{"sc", step(0x1004), step(0x1008)},
		{"tas", nil, step(0x100c)},
		{"xchg", nil, step(0x1010)},
		{"faa", nil, step(0x1014)},
		{"poke", nil, func(t *testing.T, m *Machine, _ *Context) { m.Mem.Poke(cowStack, 5) }},
		{"discard", dirtyLine, func(t *testing.T, m *Machine, _ *Context) { m.Mem.DiscardUnflushed() }},
		{"discard-torn", dirtyLine, func(t *testing.T, m *Machine, _ *Context) { m.Mem.DiscardUnflushedTorn(torn) }},
	} {
		for _, forked := range []bool{false, true} {
			m, ctx := storeProgram()
			ctx.Regs[isa.RegS0], ctx.Regs[isa.RegS1] = cowData, 7
			m.Mem.Poke(cowData, 3)
			m.Mem.Poke(cowStack, 4)
			if w.prep != nil {
				w.prep(t, m, ctx)
			}
			if forked { // the write then copies the page first
				m.Mem.Fork()
			}
			old := digestBytes(m.Mem)
			before := m.Mem.Capture()
			w.write(t, m, ctx)
			if sameImage(m.Mem.Capture(), before) {
				t.Fatalf("%s: the write changed nothing", w.name)
			}
			fresh := NewMemory()
			fresh.Restore(m.Mem.Capture())
			got, want := digestBytes(m.Mem), digestBytes(fresh)
			if !bytes.Equal(got, want) {
				t.Errorf("%s (forked=%v): stale digest after the write", w.name, forked)
			}
			if bytes.Equal(got, old) {
				t.Errorf("%s (forked=%v): digest unchanged by the write", w.name, forked)
			}
		}
	}
}
