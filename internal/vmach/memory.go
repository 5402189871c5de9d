// Package vmach implements the simulated uniprocessor: a paged word-addressed
// memory and a cycle-counting interpreter for the internal/isa instruction
// set. Thread contexts, scheduling, traps and the restartable-atomic-sequence
// machinery live one level up, in vmach/kernel, which drives this machine.
package vmach

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"maps"
	"sync/atomic"

	"repro/internal/isa"
)

// Page geometry: 4 KiB pages of 1024 words, as on the R3000.
const (
	PageShift = 12
	PageSize  = 1 << PageShift
	PageWords = PageSize / 4
)

// FaultKind classifies memory and instruction faults.
type FaultKind int

const (
	FaultNone FaultKind = iota
	FaultUnaligned
	FaultNotPresent // page fault
	FaultIllegal    // undefined or unsupported instruction
)

func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultUnaligned:
		return "unaligned access"
	case FaultNotPresent:
		return "page fault"
	case FaultIllegal:
		return "illegal instruction"
	}
	return fmt.Sprintf("fault?%d", int(k))
}

// Fault describes a failed access.
type Fault struct {
	Kind FaultKind
	Addr uint32 // faulting address (or PC for illegal instructions)
}

func (f *Fault) Error() string {
	return fmt.Sprintf("%v at %#x", f.Kind, f.Addr)
}

// Memory is a sparse paged physical memory. Pages are allocated on first
// touch; tests and the kernel can additionally mark pages not-present to
// exercise page-fault paths (§4 of the paper discusses PC checks that can
// themselves fault).
//
// A memory and its forks (Fork) share pages copy-on-write: a memory
// writes in place only the pages it owns, and the first write to any
// other page copies it (see writable).
type Memory struct {
	pages      map[uint32]*page
	notPresent map[uint32]bool // page number -> forced page fault
	// PageFaults counts not-present faults taken.
	PageFaults uint64

	// Two-tier persistence (see persist.go). When persist is false —
	// the default — memory is fully persistent RAM and the maps stay nil.
	// nvLines holds the NVM image of every line whose volatile contents
	// differ from it; pending marks lines with an initiated (flush) but
	// not yet durable (fence) write-back.
	persist bool
	nvLines map[uint32]*[LineWords]isa.Word
	pending map[uint32]bool

	// watchers, keyed by word address, observe committed stores. Harness
	// state, not machine state: snapshots do not capture them.
	watchers map[uint32][]func(old, new isa.Word)

	// owner tags the pages this memory may write in place; a Fork gives
	// both sides a new one, so every page they then share is read-only
	// to both.
	owner uint64

	// gen names the current page pointers, presence bits and store
	// rules. SetPresent, Restore, Fork, a copy-on-write copy, Watch and
	// EnablePersistence, the calls that can make any of them stale, draw
	// a new one; the machines' one-entry TLBs (fetch.go) hit only while
	// it is unchanged. text is the predecoded program text at textBase,
	// filled lazily and tag-checked on every fetch. Both are host-side
	// caches: no image carries them.
	gen      uint64
	textBase uint32
	text     []decoded
}

// page is one page of words, the owner tag copy-on-write checks, and the
// cached SHA-256 of the words, which every write clears.
type page struct {
	w      [PageWords]isa.Word
	owner  uint64
	sum    [32]byte
	summed bool
}

// generations hands out Memory.gen and Memory.owner values, unique across
// all memories, so a TLB entry can never hit against a memory it was not
// filled from, nor a memory write in place a page it does not own.
var generations atomic.Uint64

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{
		pages:      make(map[uint32]*page),
		notPresent: make(map[uint32]bool),
		owner:      generations.Add(1),
		gen:        generations.Add(1),
	}
}

// Fork returns a copy of the memory that shares its pages copy-on-write:
// neither side owns a shared page any more, so whichever writes one first
// copies it. The copy has the same contents, presence bits, persistence
// tier and fault count, and shares the predecoded text table, which is
// safe because every entry is tag-checked against the word fetched. It
// has no watchpoints. A memory and its forks share host state (pages,
// their cached digests, the text table), so they must all be used from
// one goroutine.
func (m *Memory) Fork() *Memory {
	c := *m
	c.pages = maps.Clone(m.pages)
	c.notPresent = maps.Clone(m.notPresent)
	c.pending = maps.Clone(m.pending)
	if m.nvLines != nil {
		c.nvLines = make(map[uint32]*[LineWords]isa.Word, len(m.nvLines))
		for ln, img := range m.nvLines {
			w := *img // Poke writes line images in place
			c.nvLines[ln] = &w
		}
	}
	c.watchers = nil
	c.owner, c.gen = generations.Add(1), generations.Add(1)
	m.owner, m.gen = generations.Add(1), generations.Add(1)
	return &c
}

// page returns the page holding addr for reading, allocating it on first
// touch.
func (m *Memory) page(addr uint32) *page {
	pn := addr >> PageShift
	p := m.pages[pn]
	if p == nil {
		p = &page{owner: m.owner}
		m.pages[pn] = p
	}
	return p
}

// writable returns the page holding addr for a write in place: allocated
// on first touch, copied first if the memory does not own it, and with
// its digest cleared. A copy replaces a page pointer, so it draws a new
// gen and no TLB keeps the old page.
func (m *Memory) writable(addr uint32) *page {
	p := m.page(addr)
	if p.owner != m.owner {
		c := *p
		c.owner = m.owner
		p = &c
		m.pages[addr>>PageShift] = p
		m.gen = generations.Add(1)
	}
	p.summed = false
	return p
}

// digest is the SHA-256 of the page's words, computed only when a write
// has cleared the cached one.
func (p *page) digest() [32]byte {
	if !p.summed {
		var b [PageSize]byte
		for i, w := range p.w {
			binary.LittleEndian.PutUint32(b[4*i:], uint32(w))
		}
		p.sum, p.summed = sha256.Sum256(b[:]), true
	}
	return p.sum
}

// SetPresent marks the page containing addr present (true) or not-present
// (false). Accessing a not-present page raises FaultNotPresent; the page's
// contents are preserved.
func (m *Memory) SetPresent(addr uint32, present bool) {
	m.gen = generations.Add(1)
	pn := addr >> PageShift
	if present {
		delete(m.notPresent, pn)
	} else {
		m.notPresent[pn] = true
	}
}

// Present reports whether the page containing addr is present.
func (m *Memory) Present(addr uint32) bool {
	return !m.notPresent[addr>>PageShift]
}

func (m *Memory) check(addr uint32) *Fault {
	if addr&3 != 0 {
		return &Fault{FaultUnaligned, addr}
	}
	if m.notPresent[addr>>PageShift] {
		m.PageFaults++
		return &Fault{FaultNotPresent, addr}
	}
	return nil
}

// LoadWord reads the word at addr.
func (m *Memory) LoadWord(addr uint32) (isa.Word, *Fault) {
	p, f := m.loadPage(addr)
	if f != nil {
		return 0, f
	}
	return p.w[addr>>2&(PageWords-1)], nil
}

// loadPage is LoadWord's translation: it checks addr as a load and
// returns the page holding it, allocating the page on first touch.
func (m *Memory) loadPage(addr uint32) (*page, *Fault) {
	if f := m.check(addr); f != nil {
		return nil, f
	}
	return m.page(addr), nil
}

// StoreWord writes the word at addr.
func (m *Memory) StoreWord(addr uint32, v isa.Word) *Fault {
	if f := m.check(addr); f != nil {
		return f
	}
	if m.persist {
		m.shadow(addr)
	}
	p := m.writable(addr)
	i := addr >> 2 & (PageWords - 1)
	old := p.w[i]
	p.w[i] = v
	for _, fn := range m.watchers[addr] {
		fn(old, v)
	}
	return nil
}

// Watch registers fn to observe every committed store to the word at addr
// (guest sw and interlocked instructions; Poke bypasses it). Watchpoints
// let a harness validate per-word protocol invariants — e.g. that a lock
// word only ever transitions legally — as the machine runs. They are
// harness furniture: snapshots neither capture nor restore them.
func (m *Memory) Watch(addr uint32, fn func(old, new isa.Word)) {
	if m.watchers == nil {
		m.watchers = make(map[uint32][]func(old, new isa.Word))
	}
	m.watchers[addr] = append(m.watchers[addr], fn)
	m.gen = generations.Add(1) // no store TLB may skip the watcher
}

// Peek reads a word ignoring presence bits (for debuggers and tests).
func (m *Memory) Peek(addr uint32) isa.Word {
	return m.page(addr).w[addr>>2&(PageWords-1)]
}

// Poke writes a word ignoring presence bits. It writes through to both
// persistence tiers: harness writes (program loading, test setup) are
// durable by construction, not subject to the flush/fence discipline.
func (m *Memory) Poke(addr uint32, v isa.Word) {
	m.writable(addr).w[addr>>2&(PageWords-1)] = v
	if img, dirty := m.nvLines[addr>>LineShift]; dirty {
		img[addr>>2&(LineWords-1)] = v
	}
}

// LoadProgramWords copies words into memory starting at base.
func (m *Memory) LoadProgramWords(base uint32, words []isa.Word) {
	for i, w := range words {
		m.Poke(base+uint32(i*4), w)
	}
}
