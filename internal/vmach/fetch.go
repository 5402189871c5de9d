package vmach

import "repro/internal/isa"

// The interpreter's fast path. Two host-side caches sit between Step and
// Memory; neither changes a simulated cycle, a fault or a count, and
// neither appears in any snapshot.
//
// A tlb is a one-entry translation cache: the page a machine last fetched
// from (or loaded from), valid while the memory's generation is unchanged.
// A miss takes LoadWord's own path, so alignment, page faults, the
// PageFaults count and first-touch allocation behave exactly as before.
//
// The predecoded text table holds one decoded entry per word of program
// text, tagged with the word it decodes. A fetch still reads the word from
// memory and uses the entry only when the tag matches, decoding afresh and
// refilling the entry otherwise. Because a stale entry can never be used,
// nothing that writes memory needs to invalidate the table.

// tlb is a one-entry translation cache.
type tlb struct {
	pn   uint32
	gen  uint64 // Memory.gen at fill; zero never matches
	page *[PageWords]isa.Word
}

// load reads the word at addr as Memory.LoadWord does, hitting when addr
// is aligned, on the cached page, and the memory's generation is unchanged.
func (t *tlb) load(mem *Memory, addr uint32) (isa.Word, *Fault) {
	if addr&3 != 0 || addr>>PageShift != t.pn || t.gen != mem.gen {
		return t.refill(mem, addr)
	}
	return t.page[addr>>2&(PageWords-1)], nil
}

// refill is a miss: LoadWord's path, caching the page on success.
func (t *tlb) refill(mem *Memory, addr uint32) (isa.Word, *Fault) {
	p, f := mem.loadPage(addr)
	if f != nil {
		return 0, f
	}
	*t = tlb{pn: addr >> PageShift, gen: mem.gen, page: p}
	return p[addr>>2&(PageWords-1)], nil
}

// decoded is isa.Decode's result packed into 16 bytes, with the cost
// class and the raw word it decodes. The immediates and the jump target
// are fields of raw. The zero value is the decode of word 0, nop, so a
// fresh table needs no filling.
type decoded struct {
	raw                      isa.Word
	imm                      int32 // sign-extended 16-bit immediate
	op, funct                uint8
	rs, rt, rd, shamt, class uint8
}

func predecode(w isa.Word) decoded {
	i := isa.Decode(w)
	return decoded{
		raw: w, imm: i.Imm,
		op: uint8(i.Op), funct: uint8(i.Funct),
		rs: uint8(i.Rs), rt: uint8(i.Rt), rd: uint8(i.Rd), shamt: uint8(i.Shamt),
		class: uint8(isa.ClassOf(i)),
	}
}

// uimm is the zero-extended 16-bit immediate.
func (d *decoded) uimm() isa.Word { return d.raw & 0xFFFF }

// targ is the 26-bit jump target, a word index.
func (d *decoded) targ() uint32 { return d.raw & 0x03FFFFFF }

// PredecodeText gives the memory a predecoded-instruction table over the
// n words of program text at base, replacing any earlier one. Fetches
// from those words then skip isa.Decode whenever the word is unchanged
// since it was last decoded. The table is private to this memory.
func (m *Memory) PredecodeText(base uint32, n int) {
	m.textBase, m.text = base, make([]decoded, n)
}
