package vmach

import (
	"encoding/binary"
	"hash"
	"slices"
	"sort"

	"repro/internal/isa"
)

// PageImage is one captured memory page.
type PageImage struct {
	PN    uint32 // page number (addr >> PageShift)
	Words [PageWords]isa.Word
}

// LineImage is the NVM image of one 64-byte line whose volatile contents
// differ from it.
type LineImage struct {
	LN    uint32 // line number (addr >> LineShift)
	Words [LineWords]isa.Word
}

// MemoryImage is a deterministic value snapshot of a Memory: pages,
// not-present page numbers, and the persistence tier (NVM line images and
// pending write-backs) are sorted, so two captures of identical memories
// are deeply equal (and encode to identical bytes). Watchpoints are
// harness state and are not part of the image.
type MemoryImage struct {
	Pages      []PageImage
	NotPresent []uint32
	PageFaults uint64

	// Two-tier persistence state. Persist records whether the model is
	// enabled; NVLines and PendingLines mirror Memory.nvLines/pending.
	// All empty on fully persistent (legacy) memories — and in every
	// pre-PR-6 (version 2) checkpoint, which decodes to exactly that.
	Persist      bool
	NVLines      []LineImage
	PendingLines []uint32
}

// Capture snapshots the memory.
func (m *Memory) Capture() *MemoryImage {
	img := &MemoryImage{PageFaults: m.PageFaults}
	pns := make([]uint32, 0, len(m.pages))
	for pn := range m.pages {
		pns = append(pns, pn)
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	// Sized up front: growing by append would re-copy every 4 KiB page.
	img.Pages = make([]PageImage, len(pns))
	for i, pn := range pns {
		img.Pages[i].PN = pn
		img.Pages[i].Words = m.pages[pn].w
	}
	for pn := range m.notPresent {
		img.NotPresent = append(img.NotPresent, pn)
	}
	sort.Slice(img.NotPresent, func(i, j int) bool { return img.NotPresent[i] < img.NotPresent[j] })
	img.Persist = m.persist
	for _, ln := range m.DirtyLines() {
		img.NVLines = append(img.NVLines, LineImage{LN: ln, Words: *m.nvLines[ln]})
	}
	img.PendingLines = m.PendingLines()
	return img
}

// Restore replaces the memory's contents with the image's. Watchpoints
// registered on the memory survive a restore.
func (m *Memory) Restore(img *MemoryImage) {
	m.gen = generations.Add(1)
	m.pages = make(map[uint32]*page, len(img.Pages))
	for i := range img.Pages {
		// A copy the memory owns: the image stays pristine.
		m.pages[img.Pages[i].PN] = &page{w: img.Pages[i].Words, owner: m.owner}
	}
	m.notPresent = make(map[uint32]bool, len(img.NotPresent))
	for _, pn := range img.NotPresent {
		m.notPresent[pn] = true
	}
	m.PageFaults = img.PageFaults
	m.persist = img.Persist
	m.nvLines, m.pending = nil, nil
	if img.Persist {
		m.nvLines = make(map[uint32]*[LineWords]isa.Word, len(img.NVLines))
		m.pending = make(map[uint32]bool, len(img.PendingLines))
		for i := range img.NVLines {
			w := img.NVLines[i].Words // copy: the image stays pristine
			m.nvLines[img.NVLines[i].LN] = &w
		}
		for _, ln := range img.PendingLines {
			m.pending[ln] = true
		}
	}
}

// WriteDigest writes what a state hash must know of the memory to h:
// each page of Capture's page set, zero pages included, as its number
// and its cached SHA-256 digest, in page order; then the not-present
// page numbers and the persistence tier (the enable bit, each dirty
// line's NVM image, the pending lines). Two memories write the same
// bytes exactly when their captures are equal but for PageFaults, which
// is accounting and left out. No page is copied or encoded, and only a
// page written since its last digest is hashed again.
func (m *Memory) WriteDigest(h hash.Hash) {
	pns := make([]uint32, 0, len(m.pages))
	for pn := range m.pages {
		pns = append(pns, pn)
	}
	slices.Sort(pns)
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(pns)))
	for _, pn := range pns {
		sum := m.pages[pn].digest()
		b = binary.LittleEndian.AppendUint32(b, pn)
		b = append(b, sum[:]...)
	}
	np := make([]uint32, 0, len(m.notPresent))
	for pn := range m.notPresent {
		np = append(np, pn)
	}
	slices.Sort(np)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(np)))
	for _, pn := range np {
		b = binary.LittleEndian.AppendUint32(b, pn)
	}
	if m.persist {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	dirty := m.DirtyLines()
	b = binary.LittleEndian.AppendUint32(b, uint32(len(dirty)))
	for _, ln := range dirty {
		b = binary.LittleEndian.AppendUint32(b, ln)
		for _, v := range m.nvLines[ln] {
			b = binary.LittleEndian.AppendUint32(b, uint32(v))
		}
	}
	pending := m.PendingLines()
	b = binary.LittleEndian.AppendUint32(b, uint32(len(pending)))
	for _, ln := range pending {
		b = binary.LittleEndian.AppendUint32(b, ln)
	}
	h.Write(b)
}

// MachineImage is a value snapshot of a Machine: execution statistics, the
// write-buffer drain queue, and memory. The profile is identified by name
// only — the restorer must supply the same profile, which Restore checks.
type MachineImage struct {
	ProfileName string
	Stats       Stats
	WB          []uint64
	// ll/sc reservation state (per-CPU, so per-machine).
	ResValid bool
	ResAddr  uint32
	Mem      *MemoryImage
}

// Capture snapshots the machine.
func (m *Machine) Capture() *MachineImage { return m.capture(m.Mem.Capture()) }

// CaptureShared snapshots the machine without its memory: the image
// carries an empty MemoryImage. It is for machines that share one memory
// whose owner captures it once (the CPUs of an SMP complex).
func (m *Machine) CaptureShared() *MachineImage { return m.capture(&MemoryImage{}) }

func (m *Machine) capture(mem *MemoryImage) *MachineImage {
	return &MachineImage{
		ProfileName: m.Profile.Name,
		Stats:       m.Stats,
		WB:          append([]uint64(nil), m.wb...),
		ResValid:    m.resValid,
		ResAddr:     m.resAddr,
		Mem:         mem,
	}
}

// Restore replaces the machine's state with the image's. The machine must
// have been created with the same profile the image was captured under;
// a cost model mismatch would silently diverge the replay, so it is
// reported as an error instead.
func (m *Machine) Restore(img *MachineImage) error {
	if err := m.RestoreShared(img); err != nil {
		return err
	}
	m.Mem.Restore(img.Mem)
	return nil
}

// RestoreShared is Restore without the memory, the inverse of
// CaptureShared: the machines of an SMP complex leave their shared memory
// to its owner, which restores it once.
func (m *Machine) RestoreShared(img *MachineImage) error {
	if img.ProfileName != m.Profile.Name {
		return &RestoreError{Want: img.ProfileName, Got: m.Profile.Name}
	}
	m.Stats = img.Stats
	m.wb = append([]uint64(nil), img.WB...)
	m.resValid = img.ResValid
	m.resAddr = img.ResAddr
	return nil
}

// RestoreError reports a snapshot restored onto a mismatched machine.
type RestoreError struct {
	Want, Got string
}

func (e *RestoreError) Error() string {
	return "vmach: snapshot captured on profile " + e.Want + ", restored onto " + e.Got
}
