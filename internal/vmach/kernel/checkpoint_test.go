package kernel

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/guest"
	"repro/internal/isa"
)

// ckptProgram is the checkpoint test workload: two threads hammering one
// shared counter through a registered restartable sequence, with a small
// quantum so suspensions land inside the sequence and force rollbacks.
const ckptProgram = `
main:
	la   s1, counter
	li   s2, 200
	la   a0, seq
	li   a1, 16
	li   v0, 3
	syscall
loop:
seq:
	lw   v0, 0(s1)
	addi v0, v0, 1
	landmark
	sw   v0, 0(s1)
	addi s2, s2, -1
	bgtz s2, loop
	lw   a0, 0(s1)
	li   v0, 2
	syscall
	li   v0, 0
	move a0, zero
	syscall

	.data
counter:
	.word 0
`

func ckptConfig(faults chaos.Injector) Config {
	return Config{Strategy: &Registration{}, Quantum: 150, Faults: faults}
}

func ckptBoot(t *testing.T, faults chaos.Injector) *Kernel {
	t.Helper()
	k, prog := boot(t, ckptConfig(faults), ckptProgram)
	k.Spawn(prog.MustSymbol("main"), guest.StackTop(1))
	return k
}

// compareRuns asserts two finished kernels reached the same final state.
func compareRuns(t *testing.T, got, want *Kernel) {
	t.Helper()
	if got.Stats != want.Stats {
		t.Errorf("kernel stats diverged:\n got  %+v\n want %+v", got.Stats, want.Stats)
	}
	if got.M.Stats != want.M.Stats {
		t.Errorf("machine stats diverged:\n got  %+v\n want %+v", got.M.Stats, want.M.Stats)
	}
	if !reflect.DeepEqual(got.Console, want.Console) {
		t.Errorf("console diverged: got %v, want %v", got.Console, want.Console)
	}
	if !reflect.DeepEqual(got.M.Mem.Capture(), want.M.Mem.Capture()) {
		t.Error("final memory diverged")
	}
	for i, wt := range want.Threads() {
		gt := got.Threads()[i]
		if gt.State != wt.State || gt.ExitCode != wt.ExitCode || gt.Restarts != wt.Restarts {
			t.Errorf("thread %d: got state=%v code=%d restarts=%d, want %v/%d/%d",
				i, gt.State, gt.ExitCode, gt.Restarts, wt.State, wt.ExitCode, wt.Restarts)
		}
	}
}

// A checkpoint taken at any step cut restores into a fresh kernel and
// replays to the exact final state of an uninterrupted run.
func TestCheckpointRestoreReplaysIdentically(t *testing.T) {
	ref := ckptBoot(t, nil)
	if err := ref.Run(); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	total := ref.M.Stats.Instructions
	if want := isa.Word(400); ref.Console[len(ref.Console)-1] != want {
		t.Fatalf("reference counter = %d, want %d", ref.Console[len(ref.Console)-1], want)
	}

	for _, frac := range []uint64{1, 2, 3} {
		cut := total * frac / 4
		k := ckptBoot(t, nil)
		if fin, err := k.RunSteps(cut); fin {
			t.Fatalf("cut %d: run finished early (%v)", cut, err)
		}
		snap := k.Capture()

		// Through the wire: encode, decode, and the decoded snapshot must be
		// the value that was captured.
		enc := snap.Encode()
		dec, err := DecodeSnapshot(enc)
		if err != nil {
			t.Fatalf("cut %d: decode: %v", cut, err)
		}
		if !reflect.DeepEqual(snap, dec) {
			t.Fatalf("cut %d: decoded snapshot differs from captured", cut)
		}
		if !bytes.Equal(enc, dec.Encode()) {
			t.Fatalf("cut %d: re-encoding is not bit-identical", cut)
		}

		k2, err := Restore(ckptConfig(nil), dec)
		if err != nil {
			t.Fatalf("cut %d: restore: %v", cut, err)
		}
		// A capture of the freshly restored kernel reproduces the snapshot.
		if !reflect.DeepEqual(snap, k2.Capture()) {
			t.Fatalf("cut %d: recapture after restore differs", cut)
		}
		if err := k2.Run(); err != nil {
			t.Fatalf("cut %d: replay: %v", cut, err)
		}
		compareRuns(t, k2, ref)
	}
}

// Checkpoint-at-crash: an injected whole-machine crash stops the run; a
// checkpoint taken right there restores and replays the remainder exactly
// as if the crash never happened.
func TestCrashCheckpointRestoreReplays(t *testing.T) {
	ref := ckptBoot(t, nil)
	if err := ref.Run(); err != nil {
		t.Fatalf("reference run: %v", err)
	}

	crash := chaos.OneShot{Point: chaos.PointStep, N: 700, Action: chaos.Action{Crash: true}}
	k := ckptBoot(t, crash)
	if err := k.Run(); !errors.Is(err, ErrMachineCrash) {
		t.Fatalf("crashed run = %v, want ErrMachineCrash", err)
	}
	dec, err := DecodeSnapshot(k.Capture().Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	k2, err := Restore(ckptConfig(nil), dec)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if err := k2.Run(); err != nil {
		t.Fatalf("replay after crash: %v", err)
	}
	// The crash injection itself is the only accounting difference.
	k2.Stats.Injected, ref.Stats.Injected = 0, 0
	compareRuns(t, k2, ref)
}

// A crash injected at a step is sticky: the run ends at the next step.
// A snapshot taken in between does not carry it, so a restore runs on
// past it; a fork carries it and ends where the original does.
func TestForkCarriesPendingCrash(t *testing.T) {
	crash := chaos.OneShot{Point: chaos.PointStep, N: 700, Action: chaos.Action{Crash: true}}
	k := ckptBoot(t, crash)
	for k.Steps() < 700 {
		if fin, err := k.StepOne(); fin {
			t.Fatalf("run ended before the crash step: %v", err)
		}
	}
	f, err := k.Fork(ckptConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Run(); !errors.Is(err, ErrMachineCrash) {
		t.Errorf("fork ran to %v, want ErrMachineCrash", err)
	}
	r, err := Restore(ckptConfig(nil), k.Capture())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Errorf("plain restore ran to %v, want a clean finish", err)
	}
	if err := k.Run(); !errors.Is(err, ErrMachineCrash) {
		t.Errorf("original ran to %v, want ErrMachineCrash", err)
	}
}

func TestRestoreRejectsStrategyMismatch(t *testing.T) {
	k := ckptBoot(t, nil)
	if _, err := k.RunSteps(50); err != nil {
		t.Fatal(err)
	}
	snap := k.Capture()
	if _, err := Restore(Config{Strategy: &Designated{}, Quantum: 150}, snap); err == nil {
		t.Error("strategy mismatch not rejected")
	}
	snap.Threads[0].AS = 99 // harmless — but now point CurID nowhere
	snap.CurID = 42
	if _, err := Restore(ckptConfig(nil), snap); err == nil {
		t.Error("dangling current-thread ID not rejected")
	}
}

func TestDecodeRejectsMalformedCheckpoints(t *testing.T) {
	k := ckptBoot(t, nil)
	if _, err := k.RunSteps(50); err != nil {
		t.Fatal(err)
	}
	enc := k.Capture().Encode()

	cases := map[string][]byte{
		"empty":      {},
		"bad magic":  append([]byte("NOTACKPT"), enc[8:]...),
		"truncated":  enc[:len(enc)/2],
		"trailing":   append(append([]byte(nil), enc...), 0),
		"version 2":  append(append(append([]byte(nil), enc[:8]...), 2, 0, 0, 0), enc[12:]...),
		"version 99": append(append(append([]byte(nil), enc[:8]...), 99, 0, 0, 0), enc[12:]...),
	}
	for name, data := range cases {
		if _, err := DecodeSnapshot(data); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("%s: err = %v, want ErrBadCheckpoint", name, err)
		}
	}
}

// Every Stats field must survive the wire. Filling both stats structs with
// distinct non-zero values and round-tripping catches a field added to the
// struct but forgotten in the hand-rolled encoder.
func TestCheckpointCoversAllStats(t *testing.T) {
	k := ckptBoot(t, nil)
	if _, err := k.RunSteps(50); err != nil {
		t.Fatal(err)
	}
	snap := k.Capture()

	fill := func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			v.Field(i).SetUint(uint64(1000 + i))
		}
	}
	fill(reflect.ValueOf(&snap.Stats).Elem())
	fill(reflect.ValueOf(&snap.Machine.Stats).Elem())

	dec, err := DecodeSnapshot(snap.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Stats != snap.Stats {
		t.Errorf("kernel stats dropped on the wire:\n got  %+v\n want %+v", dec.Stats, snap.Stats)
	}
	if dec.Machine.Stats != snap.Machine.Stats {
		t.Errorf("machine stats dropped on the wire:\n got  %+v\n want %+v", dec.Machine.Stats, snap.Machine.Stats)
	}
}

// FuzzCheckpoint checks the wire format is canonical: any input that
// decodes must re-encode to the identical bytes and decode again to the
// same snapshot, and the decoder must reject (never panic on) everything
// else.
func FuzzCheckpoint(f *testing.F) {
	k, prog := boot(f, ckptConfig(nil), ckptProgram)
	k.Spawn(prog.MustSymbol("main"), guest.StackTop(1))
	if _, err := k.RunSteps(300); err != nil {
		f.Fatal(err)
	}
	f.Add(k.Capture().Encode())
	f.Add([]byte(checkpointMagic))
	f.Add([]byte{})

	// A persistent-memory snapshot with dirty and pending lines seeds the
	// v3-only sections.
	kp, progp := boot(f, ckptConfig(nil), ckptProgram)
	kp.M.Mem.EnablePersistence()
	kp.Spawn(progp.MustSymbol("main"), guest.StackTop(1))
	if _, err := kp.RunSteps(300); err != nil {
		f.Fatal(err)
	}
	kp.M.Mem.FlushLine(guest.StackTop(1) - 64)
	f.Add(kp.Capture().Encode())

	// Mid-journal-transaction snapshots: the WAL workload is stepped until a
	// flush has happened since the last fence, so the capture lands between
	// the log record's write-back and its commit fence — pending (flushed,
	// unfenced) lines AND dirty volatile lines in flight at once, the state
	// a checkpoint taken inside a transaction must preserve exactly.
	kj, progj := boot(f, ckptConfig(nil), guest.JournalProgram("redo", 4))
	kj.M.Mem.EnablePersistence()
	kj.Spawn(progj.MustSymbol("main"), guest.StackTop(1))
	added := 0
	for i := 0; i < 400 && added < 3; i++ {
		fin, err := kj.RunSteps(5)
		if err != nil {
			f.Fatal(err)
		}
		if fin {
			break
		}
		if kj.M.Stats.Flushes > kj.M.Stats.Fences {
			f.Add(kj.Capture().Encode())
			added++
		}
	}
	if added == 0 {
		f.Fatal("journal workload never paused mid-transaction; corpus seed lost")
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		if err != nil {
			if !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("decode error %v does not wrap ErrBadCheckpoint", err)
			}
			return
		}
		enc := s.Encode()
		if !bytes.Equal(enc, data) {
			t.Fatalf("decode→re-encode not bit-identical: %d bytes in, %d out", len(data), len(enc))
		}
		s2, err := DecodeSnapshot(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatal("re-decode produced a different snapshot")
		}
	})
}
