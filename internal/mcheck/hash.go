package mcheck

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"

	"repro/internal/vmach"
	"repro/internal/vmach/kernel"
	"repro/internal/vmach/smp"
)

// State hashing for DFS pruning. Two schedule prefixes that park the
// substrate in the same state have identical futures, so one subtree
// suffices — but "same state" must mean behaviorally same, and the
// canonical checkpoint encodings include accounting that
// differs between behaviorally identical states: cycle counters, stat
// tallies, the absolute timer deadline. normalize* zeroes exactly the
// fields that cannot influence any future transition under the model
// checker's run conditions — an effectively infinite quantum (no timer
// preemption), no watchdog, no page evictions, a cycle budget far above
// any bounded run. Everything behavioral (registers, PCs, memory words,
// run queue order, wait queues, registration ranges, ll/sc reservations,
// write buffers) passes through untouched.
//
// The hash is SHA-256 over the normalized kernel encodings without
// memory, then the memory's digest (vmach.Memory.WriteDigest: each
// page's number and cached SHA-256, the not-present set and the
// persistence tier), then the stepper's own state. Memory, the bulk of a
// state, is neither copied nor encoded: a page is hashed again only after
// a write. Every part is either fixed-size or length-prefixed, so the
// hash splits states exactly as a hash of the whole normalized
// checkpoint would (the oracles in hash_test.go).

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

// writeKernel writes k's normalized state without its memory to h.
func writeKernel(h hash.Hash, k *kernel.Kernel) {
	s := k.CaptureShared()
	normalizeKernel(s)
	b := s.Encode()
	h.Write(binary.LittleEndian.AppendUint32(nil, uint32(len(b))))
	h.Write(b)
}

func sum(h hash.Hash) [32]byte {
	var s [32]byte
	h.Sum(s[:0])
	return s
}

// hashKernel is the canonical state hash of a paused kernel.
func hashKernel(k *kernel.Kernel) [32]byte {
	h := sha256.New()
	writeKernel(h, k)
	k.M.Mem.WriteDigest(h)
	return sum(h)
}

// hashSMP hashes a paused SMP system plus the model checker's own
// scheduler state (which CPU holds the interleaving and how far into its
// turn it is — behavioral state the snapshot doesn't carry). The
// coherence directory only modulates cycle costs, never values or
// control flow, and cycles are themselves normalized away, so it is left
// out.
func hashSMP(s *smp.System, cur int, turn uint64) [32]byte {
	h := sha256.New()
	for _, k := range s.CPUs {
		writeKernel(h, k)
	}
	s.Mem.WriteDigest(h)
	var extra [10]byte
	binary.LittleEndian.PutUint16(extra[:2], uint16(cur))
	binary.LittleEndian.PutUint64(extra[2:], turn)
	h.Write(extra[:])
	return sum(h)
}
