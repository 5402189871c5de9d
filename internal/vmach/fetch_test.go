package vmach

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/isa"
)

// loadPredecoded assembles src onto a fresh machine with a predecoded
// text table, as kernel.Load does, and returns the machine, a context at
// the entry and the program.
func loadPredecoded(t *testing.T, src string) (*Machine, *Context, *asm.Program) {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := New(arch.R3000())
	m.Mem.LoadProgramWords(prog.TextBase, prog.Text)
	m.Mem.LoadProgramWords(prog.DataBase, prog.Data)
	m.Mem.PredecodeText(prog.TextBase, len(prog.Text))
	return m, &Context{PC: prog.TextBase}, prog
}

// stepOK steps n instructions that must all retire normally.
func stepOK(t *testing.T, m *Machine, ctx *Context, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if ev := m.Step(ctx); ev.Kind != EventNone {
			t.Fatalf("step %d at pc=%#x: event %+v", i, ctx.PC, ev)
		}
	}
}

func TestPredecodedZeroEntryIsNop(t *testing.T) {
	if predecode(0) != (decoded{}) {
		t.Fatalf("predecode(0) = %+v, want the zero entry", predecode(0))
	}
}

func TestEvictedCodePageFaultsAfterTLBFill(t *testing.T) {
	src := "loop: addi t0, t0, 1\nj loop\n"
	m, ctx, prog := loadPredecoded(t, src)
	stepOK(t, m, ctx, 4) // the fetch TLB now holds the text page
	m.Mem.SetPresent(prog.TextBase, false)
	pc := ctx.PC
	ev := m.Step(ctx)
	if ev.Kind != EventFault || ev.Fault.Kind != FaultNotPresent || ev.Fault.Addr != pc {
		t.Fatalf("event after eviction = %+v, want a page fault at %#x", ev, pc)
	}

	// The reference loop takes the same fault with the same count.
	o, octx, _ := loadPredecoded(t, src)
	for i := 0; i < 4; i++ {
		o.stepOracle(octx)
	}
	o.Mem.SetPresent(prog.TextBase, false)
	if oev := o.stepOracle(octx); oev.Kind != EventFault || *oev.Fault != *ev.Fault {
		t.Fatalf("oracle event %+v, Step event %+v", oev, ev)
	}
	if m.Mem.PageFaults != 1 || o.Mem.PageFaults != 1 {
		t.Fatalf("PageFaults = %d, oracle %d; want 1", m.Mem.PageFaults, o.Mem.PageFaults)
	}

	m.Mem.SetPresent(prog.TextBase, true)
	stepOK(t, m, ctx, 2)
	if ctx.Regs[isa.RegT0] != 3 {
		t.Fatalf("t0 = %d after the page came back, want 3", ctx.Regs[isa.RegT0])
	}
}

func TestUnalignedLoadFaultsAfterDataTLBFill(t *testing.T) {
	m, ctx, prog := loadPredecoded(t, `
		la   a0, x
		lw   t0, 0(a0)
		lw   t1, 1(a0)
		break
	.data
	x:	.word 5
	`)
	ev := m.Step(ctx)
	for i := 0; ev.Kind == EventNone && i < len(prog.Text); i++ {
		ev = m.Step(ctx)
	}
	if ctx.Regs[isa.RegT0] != 5 {
		t.Fatalf("t0 = %d, want 5 from the aligned load", ctx.Regs[isa.RegT0])
	}
	if ev.Kind != EventFault || ev.Fault.Kind != FaultUnaligned || ev.Fault.Addr != prog.DataBase+1 {
		t.Fatalf("event = %+v, want an unaligned fault at %#x", ev, prog.DataBase+1)
	}
}

func TestStoreIntoTextExecutesNewInstruction(t *testing.T) {
	// The loop body's addi runs once as written, then the store rewrites
	// it to add 10 instead of 1.
	m, ctx, prog := loadPredecoded(t, `
		la   s0, body
		li   s1, 2
	loop:
	body: addi t0, t0, 1
		sw   s2, 0(s0)
		addi s1, s1, -1
		bne  s1, zero, loop
		break
	`)
	ctx.Regs[isa.RegS2] = isa.Encode(isa.Addi(isa.RegT0, isa.RegT0, 10))
	for ev := m.Step(ctx); ev.Kind != EventBreak; ev = m.Step(ctx) {
		if ev.Kind != EventNone {
			t.Fatalf("event %+v at pc=%#x", ev, ctx.PC)
		}
	}
	if got := ctx.Regs[isa.RegT0]; got != 11 {
		t.Fatalf("t0 = %d, want 11: the rewritten instruction did not run", got)
	}

	// Poke bypasses the store path; the next fetch must still see it.
	body := prog.MustSymbol("body")
	m.Mem.Poke(body, isa.Encode(isa.Addi(isa.RegT0, isa.RegT0, 100)))
	ctx.PC = body
	stepOK(t, m, ctx, 1)
	if got := ctx.Regs[isa.RegT0]; got != 111 {
		t.Fatalf("t0 = %d after Poke, want 111", got)
	}
}

func TestRestoreWithDifferentTextExecutesRestoredWords(t *testing.T) {
	m, ctx, prog := loadPredecoded(t, "addi t0, zero, 1\nbreak\n")
	other, _, _ := loadPredecoded(t, "addi t0, zero, 2\nbreak\n")
	img := other.Mem.Capture()

	stepOK(t, m, ctx, 1) // fills the TLB and the table with the first text
	if ctx.Regs[isa.RegT0] != 1 {
		t.Fatalf("t0 = %d, want 1", ctx.Regs[isa.RegT0])
	}
	m.Mem.Restore(img)
	ctx.PC = prog.TextBase
	stepOK(t, m, ctx, 1)
	if ctx.Regs[isa.RegT0] != 2 {
		t.Fatalf("t0 = %d after Restore, want 2 from the restored text", ctx.Regs[isa.RegT0])
	}
}
