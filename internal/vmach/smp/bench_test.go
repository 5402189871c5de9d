package smp

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/vmach/kernel"
)

// serverCell builds the per-CPU request plane at cpus CPUs under mode,
// as the server table's percpu rows do: four clients per CPU, iters
// requests each.
func serverCell(tb testing.TB, cpus int, mode Mode, iters int) *System {
	const clients = 4
	s := New(Config{CPUs: cpus, Mode: mode, NewStrategy: kernel.MultiRegistrationStrategy})
	prog := guest.Assemble(guest.ServerProgram(guest.ServerPerCPU, cpus))
	s.Load(prog)
	ranges := append(guest.ServerLatSequenceRanges(prog), guest.ServerSequenceRanges(prog)...)
	for _, k := range s.CPUs {
		for _, r := range ranges {
			if err := k.RegisterSequence(0, r[0], r[1]); err != nil {
				tb.Fatal(err)
			}
		}
	}
	worker, client := prog.MustSymbol("worker"), prog.MustSymbol("client")
	for cpu := 0; cpu < cpus; cpu++ {
		s.Spawn(cpu, worker, guest.StackTop(GlobalID(cpu, 0)), isa.Word(clients))
		for c := 0; c < clients; c++ {
			s.Spawn(cpu, client, guest.StackTop(GlobalID(cpu, c+1)), isa.Word(iters))
		}
	}
	return s
}

// BenchmarkStepRound times one round-robin round of the per-CPU server
// cell at 4 CPUs, CC, rebuilding the cell (off the clock) whenever it
// finishes. It reports host ns per round and per retired instruction.
func BenchmarkStepRound(b *testing.B) {
	var instrs uint64
	build := func() *System { return serverCell(b, 4, CC, 8000) }
	count := func(s *System) {
		for _, k := range s.CPUs {
			instrs += k.M.Stats.Instructions
		}
	}
	s := build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.StepRound() {
			b.StopTimer()
			if err := s.Verdict(); err != nil {
				b.Fatal(err)
			}
			count(s)
			s = build()
			b.StartTimer()
		}
	}
	b.StopTimer()
	count(s)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
}
