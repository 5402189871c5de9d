package smp

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/guest"
)

// midRunSnapshot runs a 2-CPU hybrid workload partway and captures it.
func midRunSnapshot(t testing.TB, rounds uint64) (*System, *Snapshot, uint32) {
	s, counter := buildCounter(Config{CPUs: 2}, guest.SMPHybrid, 2, 30)
	if s.RunRounds(rounds) {
		t.Fatalf("workload finished within %d rounds; pick a smaller cut", rounds)
	}
	return s, s.Capture(), counter
}

// TestSMPCheckpointRoundTrip: capture mid-run, let the original finish,
// restore the snapshot into a fresh system, finish that too — every
// statistic and the shared counter agree.
func TestSMPCheckpointRoundTrip(t *testing.T) {
	orig, snap, counter := midRunSnapshot(t, 500)
	if err := orig.Run(); err != nil {
		t.Fatal(err)
	}

	restored, err := Restore(Config{}, snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Mem.Peek(counter), orig.Mem.Peek(counter); got != want {
		t.Errorf("counter: restored %d, original %d", got, want)
	}
	for i := range orig.CPUs {
		if restored.CPUs[i].M.Stats != orig.CPUs[i].M.Stats {
			t.Errorf("cpu%d machine stats diverged:\nrestored %+v\noriginal %+v",
				i, restored.CPUs[i].M.Stats, orig.CPUs[i].M.Stats)
		}
		if restored.CPUs[i].Stats != orig.CPUs[i].Stats {
			t.Errorf("cpu%d kernel stats diverged:\nrestored %+v\noriginal %+v",
				i, restored.CPUs[i].Stats, orig.CPUs[i].Stats)
		}
	}
}

// TestSMPForkCarriesRunState: a fork taken after one CPU finished knows
// it finished — the snapshot alone does not — and both copies then run
// to the same end state.
func TestSMPForkCarriesRunState(t *testing.T) {
	orig, counter := buildCounter(Config{CPUs: 2}, guest.SMPHybrid, 2, 30)
	for !orig.StepCPU(0) {
	}
	fork, err := orig.Fork(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !fork.Done(0) || fork.Done(1) {
		t.Fatalf("fork done = %v/%v, want cpu0 only", fork.Done(0), fork.Done(1))
	}
	for _, s := range []*System{orig, fork} {
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := fork.Mem.Peek(counter), orig.Mem.Peek(counter); got != want {
		t.Errorf("counter: fork %d, original %d", got, want)
	}
	for i := range orig.CPUs {
		if fork.CPUs[i].M.Stats != orig.CPUs[i].M.Stats || fork.CPUs[i].Stats != orig.CPUs[i].Stats {
			t.Errorf("cpu%d stats diverged between fork and original", i)
		}
	}
}

// TestSMPCheckpointEncodeCanonical: decode then re-encode is bit-identical,
// and a snapshot restored from the decoded bytes replays like the original.
func TestSMPCheckpointEncodeCanonical(t *testing.T) {
	_, snap, _ := midRunSnapshot(t, 400)
	blob := snap.Encode()
	dec, err := DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.Encode(), blob) {
		t.Error("decode → re-encode is not bit-identical")
	}
	if len(dec.Kernels) != 2 {
		t.Fatalf("decoded %d kernels, want 2", len(dec.Kernels))
	}
	if _, err := Restore(Config{}, dec); err != nil {
		t.Fatalf("restore from decoded snapshot: %v", err)
	}
}

func TestSMPDecodeRejectsGarbage(t *testing.T) {
	_, snap, _ := midRunSnapshot(t, 300)
	blob := snap.Encode()

	cases := map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("NOTSMP\x00\x00"), blob[8:]...),
		"truncated": blob[:len(blob)/2],
		"trailing":  append(append([]byte{}, blob...), 0),
	}
	for name, data := range cases {
		if _, err := DecodeSnapshot(data); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: err = %v, want ErrBadSnapshot", name, err)
		}
	}
}

// FuzzSMPCheckpoint is the decoder's safety-and-canonicality contract
// under arbitrary input: never panic, and any blob that decodes at all
// re-encodes to exactly the same bytes — including multi-CPU containers.
func FuzzSMPCheckpoint(f *testing.F) {
	for _, cpus := range []int{1, 2, 4} {
		s, _ := buildCounter(Config{CPUs: cpus}, guest.SMPHybrid, 2, 10)
		s.RunRounds(200)
		f.Add(s.Capture().Encode())
	}
	// Mid-transaction seeds: staggered odd round counts land the capture
	// inside the hybrid lock's critical section — one CPU mid-RAS-sequence
	// or holding the spinlock word — so the corpus covers containers whose
	// in-flight lock state must survive the wire, not just quiescent ones.
	for _, rounds := range []uint64{3, 57, 201} {
		s, _ := buildCounter(Config{CPUs: 2}, guest.SMPHybrid, 2, 10)
		s.RunRounds(rounds)
		f.Add(s.Capture().Encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		if !bytes.Equal(snap.Encode(), data) {
			t.Fatalf("decode → re-encode not bit-identical for accepted input")
		}
	})
}

// TestCOWCopyInvalidatesOtherCPUsTLB: CPU 1 spins loading a word until
// it changes. The system is forked, so the parent no longer owns the
// word's page, and CPU 1 spins on with the shared page in its load TLB.
// CPU 0's store then copies the page; CPU 1 must drop the old page and
// see the store, while the fork keeps the old value.
func TestCOWCopyInvalidatesOtherCPUsTLB(t *testing.T) {
	s := New(Config{CPUs: 2})
	prog := guest.Assemble(`
writer:	la   a0, x
	li   t1, 5
	sw   t1, 0(a0)
	li   v0, 0
	syscall
reader:	la   a0, x
spin:	lw   t0, 0(a0)
	beq  t0, zero, spin
	li   v0, 0
	syscall
	.data
x:	.word 0
`)
	s.Load(prog)
	s.Spawn(0, prog.MustSymbol("writer"), guest.StackTop(GlobalID(0, 0)))
	s.Spawn(1, prog.MustSymbol("reader"), guest.StackTop(GlobalID(1, 0)))
	for i := 0; i < 20; i++ {
		if s.StepCPU(1) {
			t.Fatal("reader finished before the store")
		}
	}
	fork, err := s.Fork(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.StepCPU(1)
	}
	for i := 0; !s.StepCPU(0); i++ {
		if i == 20 {
			t.Fatal("writer did not finish")
		}
	}
	for i := 0; !s.StepCPU(1); i++ {
		if i == 20 {
			t.Fatal("reader still spinning: its TLB kept the page the store copied")
		}
	}
	x := prog.MustSymbol("x")
	if got := fork.Mem.Peek(x); got != 0 {
		t.Errorf("fork sees x = %d, want 0: the store leaked", got)
	}
	if err := s.Verdict(); err != nil {
		t.Fatal(err)
	}
}
