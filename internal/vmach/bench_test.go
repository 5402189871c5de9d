package vmach

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/asm"
)

// BenchmarkStep times the interpreter loop alone on a fixed guest loop
// of ALU ops, loads, stores and a branch, loaded with a predecoded text
// table as kernel.Load loads it. It reports host ns per instruction.
func BenchmarkStep(b *testing.B) {
	prog, err := asm.Assemble(`
		la   s0, buf
	loop:
		lw   t0, 0(s0)
		addi t0, t0, 1
		sw   t0, 0(s0)
		lw   t1, 4(s0)
		xor  t1, t1, t0
		sw   t1, 4(s0)
		sll  t2, t0, 3
		slt  t3, t2, t1
		j    loop
	.data
	buf: .word 0, 0
	`)
	if err != nil {
		b.Fatal(err)
	}
	m := New(arch.R3000())
	m.Mem.LoadProgramWords(prog.TextBase, prog.Text)
	m.Mem.LoadProgramWords(prog.DataBase, prog.Data)
	m.Mem.PredecodeText(prog.TextBase, len(prog.Text))
	ctx := &Context{PC: prog.TextBase}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ev := m.Step(ctx); ev.Kind != EventNone {
			b.Fatalf("event %+v at pc=%#x", ev, ctx.PC)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/instr")
}
