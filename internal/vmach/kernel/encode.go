package kernel

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/isa"
	"repro/internal/vmach"
)

// The checkpoint wire format is hand-rolled little-endian binary with a
// magic/version header. It is canonical: every snapshot has exactly one
// encoding (slices carry explicit lengths, booleans must be 0 or 1,
// trailing bytes are rejected), so decode followed by re-encode is
// bit-identical — the property FuzzCheckpoint checks.

const (
	checkpointMagic = "RASCKPT\x00"
	// Version 2 added the machine's ll/sc reservation and the coherence
	// counters (RMRs, CoherenceCycles) to MachineImage. Version-1 blobs
	// are rejected rather than migrated: the format is canonical, and a
	// silent zero-fill would forge coherence history.
	//
	// Version 3 added the NVRAM persistence split: the flush/fence machine
	// stats and the memory image's volatile/persistent sections (NVM line
	// images and pending write-backs). Version-2 blobs are rejected too;
	// no stored artifact predates version 3.
	checkpointVersion = 3
)

// maxSliceLen bounds every decoded length prefix. Real snapshots are far
// smaller; the bound keeps a corrupt (or fuzzed) length from allocating
// gigabytes before the truncation is noticed.
const maxSliceLen = 1 << 24

// ErrBadCheckpoint matches (with errors.Is) every checkpoint decode error.
var ErrBadCheckpoint = errors.New("kernel: malformed checkpoint")

type encoder struct {
	b []byte
}

func (e *encoder) u8(v uint8)   { e.b = append(e.b, v) }
func (e *encoder) u32(v uint32) { e.b = append(e.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24)) }
func (e *encoder) u64(v uint64) { e.u32(uint32(v)); e.u32(uint32(v >> 32)) }
func (e *encoder) i32(v int32)  { e.u32(uint32(v)) }
func (e *encoder) i64(v int64)  { e.u64(uint64(v)) }
func (e *encoder) boolean(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}

type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s at offset %d", ErrBadCheckpoint, fmt.Sprintf(format, args...), d.off)
	}
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.b)-d.off < n {
		d.fail("truncated (want %d more bytes, have %d)", n, len(d.b)-d.off)
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

func (d *decoder) u8() uint8 {
	s := d.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

func (d *decoder) u32() uint32 {
	s := d.take(4)
	if s == nil {
		return 0
	}
	return uint32(s[0]) | uint32(s[1])<<8 | uint32(s[2])<<16 | uint32(s[3])<<24
}

func (d *decoder) u64() uint64 {
	lo := d.u32()
	return uint64(lo) | uint64(d.u32())<<32
}

func (d *decoder) i32() int32 { return int32(d.u32()) }
func (d *decoder) i64() int64 { return int64(d.u64()) }

func (d *decoder) boolean() bool {
	switch d.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("non-canonical boolean")
		return false
	}
}

func (d *decoder) str() string {
	n := d.u32()
	if n > maxSliceLen {
		d.fail("string length %d too large", n)
		return ""
	}
	return string(d.take(int(n)))
}

// sliceLen reads a length prefix for a slice whose elements each occupy at
// least elemSize encoded bytes, rejecting lengths the remaining input
// cannot possibly satisfy.
func (d *decoder) sliceLen(elemSize int) int {
	n := d.u32()
	if n > maxSliceLen || (d.err == nil && int(n)*elemSize > len(d.b)-d.off) {
		d.fail("slice length %d exceeds input", n)
		return 0
	}
	return int(n)
}

func encodeContext(e *encoder, c *vmach.Context) {
	for i := 0; i < isa.NumRegs; i++ {
		e.u32(uint32(c.Regs[i]))
	}
	e.u32(c.PC)
	e.boolean(c.LockActive)
	e.u32(c.LockPC)
	e.i64(int64(c.LockBudget))
}

func decodeContext(d *decoder, c *vmach.Context) {
	for i := 0; i < isa.NumRegs; i++ {
		c.Regs[i] = isa.Word(d.u32())
	}
	c.PC = d.u32()
	c.LockActive = d.boolean()
	c.LockPC = d.u32()
	c.LockBudget = int(d.i64())
}

// Kernel and machine Stats are encoded field by field in declaration
// order; adding a field without touching these functions is caught by
// TestCheckpointCoversAllStats.
func encodeKernelStats(e *encoder, s *Stats) {
	e.u64(s.Suspensions)
	e.u64(s.Preemptions)
	e.u64(s.PageFaults)
	e.u64(s.Restarts)
	e.u64(s.EmulTraps)
	e.u64(s.Syscalls)
	e.u64(s.Switches)
	e.u64(s.CheckRejects)
	e.u64(s.HardwareResets)
	e.u64(s.SlowAcquires)
	e.u64(s.MutexWakes)
	e.u64(s.Spurious)
	e.u64(s.Injected)
	e.u64(s.WatchdogExtends)
	e.u64(s.WatchdogAborts)
	e.u64(s.Kills)
}

func decodeKernelStats(d *decoder, s *Stats) {
	s.Suspensions = d.u64()
	s.Preemptions = d.u64()
	s.PageFaults = d.u64()
	s.Restarts = d.u64()
	s.EmulTraps = d.u64()
	s.Syscalls = d.u64()
	s.Switches = d.u64()
	s.CheckRejects = d.u64()
	s.HardwareResets = d.u64()
	s.SlowAcquires = d.u64()
	s.MutexWakes = d.u64()
	s.Spurious = d.u64()
	s.Injected = d.u64()
	s.WatchdogExtends = d.u64()
	s.WatchdogAborts = d.u64()
	s.Kills = d.u64()
}

func encodeMachineStats(e *encoder, s *vmach.Stats) {
	e.u64(s.Instructions)
	e.u64(s.Cycles)
	e.u64(s.Loads)
	e.u64(s.Stores)
	e.u64(s.Interlocked)
	e.u64(s.LockBStarts)
	e.u64(s.LockBExpired)
	e.u64(s.WriteStalls)
	e.u64(s.WriteStallCycles)
	e.u64(s.RMRs)
	e.u64(s.CoherenceCycles)
	e.u64(s.Flushes)
	e.u64(s.Fences)
	e.u64(s.LinesPersisted)
	e.u64(s.PersistCycles)
}

func decodeMachineStats(d *decoder, s *vmach.Stats) {
	s.Instructions = d.u64()
	s.Cycles = d.u64()
	s.Loads = d.u64()
	s.Stores = d.u64()
	s.Interlocked = d.u64()
	s.LockBStarts = d.u64()
	s.LockBExpired = d.u64()
	s.WriteStalls = d.u64()
	s.WriteStallCycles = d.u64()
	s.RMRs = d.u64()
	s.CoherenceCycles = d.u64()
	s.Flushes = d.u64()
	s.Fences = d.u64()
	s.LinesPersisted = d.u64()
	s.PersistCycles = d.u64()
}

func encodeMachineImage(e *encoder, m *vmach.MachineImage) {
	e.str(m.ProfileName)
	encodeMachineStats(e, &m.Stats)
	e.u32(uint32(len(m.WB)))
	for _, w := range m.WB {
		e.u64(w)
	}
	e.boolean(m.ResValid)
	e.u32(m.ResAddr)
	encodeMemoryImage(e, m.Mem)
}

func encodeMemoryImage(e *encoder, mem *vmach.MemoryImage) {
	e.b = slices.Grow(e.b, 4+len(mem.Pages)*(4+4*vmach.PageWords)+
		4+4*len(mem.NotPresent)+8+
		1+4+len(mem.NVLines)*(4+4*vmach.LineWords)+4+4*len(mem.PendingLines))
	e.u32(uint32(len(mem.Pages)))
	for i := range mem.Pages {
		p := &mem.Pages[i]
		e.u32(p.PN)
		for _, w := range p.Words {
			e.u32(uint32(w))
		}
	}
	e.u32(uint32(len(mem.NotPresent)))
	for _, pn := range mem.NotPresent {
		e.u32(pn)
	}
	e.u64(mem.PageFaults)
	e.boolean(mem.Persist)
	e.u32(uint32(len(mem.NVLines)))
	for i := range mem.NVLines {
		e.u32(mem.NVLines[i].LN)
		for _, w := range mem.NVLines[i].Words {
			e.u32(uint32(w))
		}
	}
	e.u32(uint32(len(mem.PendingLines)))
	for _, ln := range mem.PendingLines {
		e.u32(ln)
	}
}

func decodeMachineImage(d *decoder) *vmach.MachineImage {
	m := &vmach.MachineImage{Mem: &vmach.MemoryImage{}}
	m.ProfileName = d.str()
	decodeMachineStats(d, &m.Stats)
	for n := d.sliceLen(8); n > 0 && d.err == nil; n-- {
		m.WB = append(m.WB, d.u64())
	}
	m.ResValid = d.boolean()
	m.ResAddr = d.u32()
	decodeMemoryImage(d, m.Mem)
	return m
}

func decodeMemoryImage(d *decoder, mem *vmach.MemoryImage) {
	for n := d.sliceLen(4 + 4*vmach.PageWords); n > 0 && d.err == nil; n-- {
		var p vmach.PageImage
		p.PN = d.u32()
		for i := range p.Words {
			p.Words[i] = isa.Word(d.u32())
		}
		mem.Pages = append(mem.Pages, p)
	}
	for n := d.sliceLen(4); n > 0 && d.err == nil; n-- {
		mem.NotPresent = append(mem.NotPresent, d.u32())
	}
	mem.PageFaults = d.u64()
	mem.Persist = d.boolean()
	for n := d.sliceLen(4 + 4*vmach.LineWords); n > 0 && d.err == nil; n-- {
		var l vmach.LineImage
		l.LN = d.u32()
		for i := range l.Words {
			l.Words[i] = isa.Word(d.u32())
		}
		mem.NVLines = append(mem.NVLines, l)
	}
	for n := d.sliceLen(4); n > 0 && d.err == nil; n-- {
		mem.PendingLines = append(mem.PendingLines, d.u32())
	}
}

// EncodeMemoryImage serializes a memory image alone, in the same canonical
// form it takes inside a kernel checkpoint. The SMP container format uses
// this to encode the shared memory once instead of once per CPU.
func EncodeMemoryImage(mem *vmach.MemoryImage) []byte {
	e := &encoder{}
	encodeMemoryImage(e, mem)
	return e.b
}

// DecodeMemoryImage parses a blob produced by EncodeMemoryImage. It
// consumes the entire input; trailing bytes are an error.
func DecodeMemoryImage(data []byte) (*vmach.MemoryImage, error) {
	d := &decoder{b: data}
	mem := &vmach.MemoryImage{}
	decodeMemoryImage(d, mem)
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadCheckpoint, len(d.b)-d.off)
	}
	return mem, nil
}

// Encode serializes the snapshot. The encoding of a given snapshot is a
// pure function of its value: two equal snapshots encode to identical
// bytes.
func (s *Snapshot) Encode() []byte {
	// Room for all but the memory image, which grows the buffer itself.
	e := &encoder{b: make([]byte, 0, 512+4*len(s.Console)+threadImageSize*len(s.Threads))}
	e.b = append(e.b, checkpointMagic...)
	e.u32(checkpointVersion)
	e.str(s.Strategy)
	e.u64(s.Quantum)
	e.u64(s.SliceAt)
	e.u64(s.Steps)
	e.i32(s.CurID)
	e.u32(s.UserHandler)
	e.boolean(s.HasUserHandler)
	encodeKernelStats(e, &s.Stats)
	e.u32(uint32(len(s.Console)))
	for _, w := range s.Console {
		e.u32(uint32(w))
	}
	e.u32(uint32(len(s.Threads)))
	for i := range s.Threads {
		t := &s.Threads[i]
		e.i32(t.AS)
		encodeContext(e, &t.Ctx)
		e.i32(int32(t.State))
		e.u32(uint32(t.ExitCode))
		e.i32(t.FaultKind)
		e.u32(t.FaultAddr)
		e.u64(t.Suspensions)
		e.u64(t.Restarts)
		e.boolean(t.NeedsCheck)
		e.u32(t.SeqPC)
		e.u64(t.SeqRestarts)
		e.boolean(t.Extended)
		e.boolean(t.BoostSlice)
	}
	e.u32(uint32(len(s.RunQ)))
	for _, id := range s.RunQ {
		e.i32(id)
	}
	e.u32(uint32(len(s.Ras)))
	for _, r := range s.Ras {
		e.i32(r.AS)
		e.u32(r.Start)
		e.u32(r.Length)
	}
	e.u32(uint32(len(s.MultiRanges)))
	for _, r := range s.MultiRanges {
		e.u32(r.Start)
		e.u32(r.Length)
	}
	e.u32(uint32(len(s.Waits)))
	for _, w := range s.Waits {
		e.u32(w.Addr)
		e.u32(uint32(len(w.TIDs)))
		for _, id := range w.TIDs {
			e.i32(id)
		}
	}
	encodeMachineImage(e, s.Machine)
	return e.b
}

// threadImageSize is a lower bound on one encoded ThreadImage, used to
// reject absurd length prefixes early.
const threadImageSize = 4 + (isa.NumRegs*4 + 4 + 1 + 4 + 8) + 4 + 4 + 4 + 4 + 8 + 8 + 1 + 4 + 8 + 1 + 1

// DecodeSnapshot parses an encoded checkpoint. Every structural defect —
// truncation, bad magic, unknown version, oversized lengths, non-canonical
// booleans, trailing bytes — is reported as an error wrapping
// ErrBadCheckpoint; the decoder never panics on garbage.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	d := &decoder{b: data}
	if magic := d.take(len(checkpointMagic)); d.err == nil && string(magic) != checkpointMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadCheckpoint)
	}
	if ver := d.u32(); d.err == nil && ver != checkpointVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadCheckpoint, ver)
	}
	s := &Snapshot{}
	s.Strategy = d.str()
	s.Quantum = d.u64()
	s.SliceAt = d.u64()
	s.Steps = d.u64()
	s.CurID = d.i32()
	s.UserHandler = d.u32()
	s.HasUserHandler = d.boolean()
	decodeKernelStats(d, &s.Stats)
	for n := d.sliceLen(4); n > 0 && d.err == nil; n-- {
		s.Console = append(s.Console, isa.Word(d.u32()))
	}
	for n := d.sliceLen(threadImageSize); n > 0 && d.err == nil; n-- {
		var t ThreadImage
		t.AS = d.i32()
		decodeContext(d, &t.Ctx)
		t.State = ThreadState(d.i32())
		t.ExitCode = isa.Word(d.u32())
		t.FaultKind = d.i32()
		t.FaultAddr = d.u32()
		t.Suspensions = d.u64()
		t.Restarts = d.u64()
		t.NeedsCheck = d.boolean()
		t.SeqPC = d.u32()
		t.SeqRestarts = d.u64()
		t.Extended = d.boolean()
		t.BoostSlice = d.boolean()
		s.Threads = append(s.Threads, t)
	}
	for n := d.sliceLen(4); n > 0 && d.err == nil; n-- {
		s.RunQ = append(s.RunQ, d.i32())
	}
	for n := d.sliceLen(12); n > 0 && d.err == nil; n-- {
		s.Ras = append(s.Ras, RasImage{AS: d.i32(), Start: d.u32(), Length: d.u32()})
	}
	for n := d.sliceLen(8); n > 0 && d.err == nil; n-- {
		s.MultiRanges = append(s.MultiRanges, RangeImage{Start: d.u32(), Length: d.u32()})
	}
	for n := d.sliceLen(8); n > 0 && d.err == nil; n-- {
		w := WaitImage{Addr: d.u32()}
		for m := d.sliceLen(4); m > 0 && d.err == nil; m-- {
			w.TIDs = append(w.TIDs, d.i32())
		}
		s.Waits = append(s.Waits, w)
	}
	s.Machine = decodeMachineImage(d)
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadCheckpoint, len(d.b)-d.off)
	}
	return s, nil
}
