package vmach

import (
	"sort"

	"repro/internal/isa"
)

// Two-tier persistence model (NVRAM). The recoverable-mutex literature the
// recovery work follows (Jayanti & Joshi; Chan & Woelfel) assumes a machine
// whose main memory survives a crash while its caches do not. This file
// models that split: in front of the non-volatile store sits a volatile
// write-back buffer of 64-byte lines (the SMP coherence line geometry).
// A committed store lands in the volatile tier only; the line's NVM image
// keeps its pre-store contents until the guest writes the line back with
// the flush instruction AND makes the write-back durable with fence. A
// volatile crash (chaos.Action.CrashVolatile) discards the volatile tier,
// reverting every unflushed line to its NVM image — which is exactly the
// state a recovery path gets to see.
//
// The model is conservative and deterministic: a line flushed but not yet
// fenced does NOT survive a crash, and a store to a flushed-but-unfenced
// line cancels the outstanding write-back (it must be flushed again).
//
// Persistence is off by default — Memory behaves as fully persistent RAM,
// which is the legacy `Crash` semantics — and is enabled per memory with
// EnablePersistence.

// Line geometry: 64-byte lines of 16 words, matching smp.LineShift.
const (
	LineShift = 6
	LineBytes = 1 << LineShift
	LineWords = LineBytes / 4
)

// EnablePersistence switches the memory to the two-tier model. Contents
// already in memory (e.g. a loaded program image) are treated as durable.
func (m *Memory) EnablePersistence() {
	m.persist = true
	m.gen = generations.Add(1) // stores must shadow from now on
	if m.nvLines == nil {
		m.nvLines = make(map[uint32]*[LineWords]isa.Word)
		m.pending = make(map[uint32]bool)
	}
}

// Persistent reports whether the two-tier persistence model is enabled.
func (m *Memory) Persistent() bool { return m.persist }

// shadow snapshots the line holding addr into the NVM tier before its
// first volatile overwrite, and cancels any outstanding write-back for it.
// Caller must only invoke it with persistence enabled, before the store.
func (m *Memory) shadow(addr uint32) {
	line := addr >> LineShift
	if _, dirty := m.nvLines[line]; !dirty {
		img := new([LineWords]isa.Word)
		base := line << LineShift
		copy(img[:], m.page(base).w[base>>2&(PageWords-1):][:LineWords])
		m.nvLines[line] = img
	}
	delete(m.pending, line)
}

// FlushLine initiates write-back of the 64-byte line holding addr toward
// NVM (clwb-style). The write-back only becomes durable at the next Fence.
// It reports whether the line had volatile contents to write back. Like
// any memory reference it faults on a not-present page; unlike loads and
// stores it has no alignment requirement (the low six bits are ignored).
func (m *Memory) FlushLine(addr uint32) (bool, *Fault) {
	if m.notPresent[addr>>PageShift] {
		m.PageFaults++
		return false, &Fault{FaultNotPresent, addr}
	}
	if !m.persist {
		return false, nil // a hint on fully persistent memory
	}
	line := addr >> LineShift
	if _, dirty := m.nvLines[line]; !dirty {
		return false, nil
	}
	m.pending[line] = true
	return true, nil
}

// Fence makes every initiated write-back durable: each pending line's
// volatile contents become its NVM contents. Returns how many lines were
// persisted (the machine charges NVM write-back latency per line).
func (m *Memory) Fence() int {
	n := len(m.pending)
	for line := range m.pending {
		delete(m.nvLines, line)
	}
	clear(m.pending)
	return n
}

// DiscardUnflushed models the memory side of a volatile machine crash:
// every line whose write-back has not been fenced reverts to its NVM
// image, and the persistence buffer empties. Returns the number of lines
// that lost volatile contents. Watchpoints do not fire — a crash is not a
// committed store.
func (m *Memory) DiscardUnflushed() int {
	n := len(m.nvLines)
	for line, img := range m.nvLines {
		base := line << LineShift
		copy(m.writable(base).w[base>>2&(PageWords-1):][:LineWords], img[:])
	}
	clear(m.nvLines)
	clear(m.pending)
	return n
}

// DiscardUnflushedTorn is the torn-write variant of a volatile crash
// (chaos.Action.Torn): power is lost while the NVM controller is halfway
// through draining the initiated write-backs. Every line with a PENDING
// write-back (flushed, fence not yet reached) persists only a prefix of
// its words — the first k words of the line carry their volatile
// contents, the rest revert to the NVM image — where k is derived
// deterministically from h and the line number, so a torn crash replays
// exactly. Lines that were dirty but never flushed revert entirely, as in
// DiscardUnflushed. Returns the number of lines that lost at least one
// word. Watchpoints do not fire — a crash is not a committed store.
func (m *Memory) DiscardUnflushedTorn(h uint64) int {
	n := 0
	for line, img := range m.nvLines {
		keep := 0 // words of the line whose volatile contents persist
		if m.pending[line] {
			keep = int(splitmix(h^uint64(line)) % (LineWords + 1))
		}
		base := line << LineShift
		mem := m.writable(base).w[base>>2&(PageWords-1):][:LineWords]
		torn := false
		for i := keep; i < LineWords; i++ {
			if mem[i] != img[i] {
				torn = true
			}
			mem[i] = img[i]
		}
		if torn {
			n++
		}
	}
	clear(m.nvLines)
	clear(m.pending)
	return n
}

// splitmix is SplitMix64 (mirrors chaos.Derive's mixer) — kept local so
// the memory model does not depend on the chaos package.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// NVPeek reads the NVM-tier value of the word at addr — what a crash at
// this instant would leave behind — without disturbing either tier.
func (m *Memory) NVPeek(addr uint32) isa.Word {
	if m.persist {
		if img, dirty := m.nvLines[addr>>LineShift]; dirty {
			return img[addr>>2&(LineWords-1)]
		}
	}
	return m.Peek(addr)
}

// DirtyLines returns the sorted line numbers whose volatile contents
// differ from NVM (including lines with a pending, unfenced write-back).
func (m *Memory) DirtyLines() []uint32 {
	if len(m.nvLines) == 0 {
		return nil
	}
	lines := make([]uint32, 0, len(m.nvLines))
	for line := range m.nvLines {
		lines = append(lines, line)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	return lines
}

// PendingLines returns the sorted line numbers with an initiated but not
// yet fenced write-back.
func (m *Memory) PendingLines() []uint32 {
	if len(m.pending) == 0 {
		return nil
	}
	lines := make([]uint32, 0, len(m.pending))
	for line := range m.pending {
		lines = append(lines, line)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	return lines
}
