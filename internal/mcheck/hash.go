package mcheck

import (
	"crypto/sha256"

	"repro/internal/vmach"
	"repro/internal/vmach/kernel"
	"repro/internal/vmach/smp"
)

// State hashing for DFS pruning. Two schedule prefixes that park the
// substrate in the same state have identical futures, so one subtree
// suffices — but "same state" must mean behaviorally same, and the
// canonical checkpoint encodings (PR 2/PR 4) include accounting that
// differs between behaviorally identical states: cycle counters, stat
// tallies, the absolute timer deadline. normalize* zeroes exactly the
// fields that cannot influence any future transition under the model
// checker's run conditions — an effectively infinite quantum (no timer
// preemption), no watchdog, no page evictions, a cycle budget far above
// any bounded run — and the hash is sha256 of the normalized encoding.
// Everything behavioral (registers, PCs, memory words, run queue order,
// wait queues, registration ranges, ll/sc reservations, write buffers)
// passes through untouched.

func normalizeKernel(s *kernel.Snapshot) {
	s.SliceAt = 0            // absolute timer deadline: cycles + quantum
	s.Steps = 0              // the decision cursor itself
	s.Stats = kernel.Stats{} // pure accounting
	for i := range s.Threads {
		t := &s.Threads[i]
		t.Suspensions = 0 // accounting
		t.Restarts = 0    // accounting
		// Watchdog bookkeeping: dead state without a watchdog installed.
		t.SeqPC = 0
		t.SeqRestarts = 0
		t.Extended = false
		t.BoostSlice = false
	}
	if s.Machine != nil {
		s.Machine.Stats = vmach.Stats{}
		if s.Machine.Mem != nil {
			s.Machine.Mem.PageFaults = 0
		}
	}
}

// hashKernel is the canonical state hash of a paused kernel.
func hashKernel(k *kernel.Kernel) [32]byte {
	s := k.Capture()
	normalizeKernel(s)
	return sha256.Sum256(s.Encode())
}

// hashSMP hashes a paused SMP system plus the model checker's own
// scheduler state (which CPU holds the interleaving and how far into its
// turn it is — behavioral state the snapshot doesn't carry).
func hashSMP(s *smp.System, cur int, turn uint64) [32]byte {
	snap := s.Capture()
	for _, ks := range snap.Kernels {
		normalizeKernel(ks)
	}
	snap.Mem.PageFaults = 0
	// The coherence directory only modulates cycle costs, never values
	// or control flow, and cycles are themselves normalized away.
	snap.Lines = nil
	h := sha256.New()
	h.Write(snap.Encode())
	h.Write([]byte{
		byte(cur), byte(cur >> 8),
		byte(turn), byte(turn >> 8), byte(turn >> 16), byte(turn >> 24),
		byte(turn >> 32), byte(turn >> 40), byte(turn >> 48), byte(turn >> 56),
	})
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}
