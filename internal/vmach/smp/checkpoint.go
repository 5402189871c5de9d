package smp

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/vmach"
	"repro/internal/vmach/kernel"
)

// An SMP checkpoint is a container around the per-CPU kernel checkpoints:
// each CPU's kernel snapshot is embedded with its memory image stripped
// (the memory is shared, so it is encoded exactly once at the container
// level), followed by the shared memory and the coherence directory.
// Like the kernel format it is canonical — decode then re-encode is
// bit-identical — which FuzzSMPCheckpoint checks.

const (
	smpMagic = "RASSMP\x00\x00"
	// Version 2 tracks the kernel checkpoint format's v3 bump: the shared
	// memory image it embeds (via kernel.EncodeMemoryImage, which carries
	// no header of its own) grew persistence sections. Version-1 blobs are
	// rejected — the embedded layout is ambiguous without the bump.
	smpVersion = 2
)

// ErrBadSnapshot matches (with errors.Is) every SMP snapshot decode error.
var ErrBadSnapshot = errors.New("smp: malformed snapshot")

// Snapshot is a value snapshot of a whole system. As with the kernel
// layer, harness wiring (tracers, injectors) is absent and resupplied by
// the restoring Config.
type Snapshot struct {
	Mode    Mode
	Costs   Costs
	Kernels []*kernel.Snapshot // per CPU, memory images stripped
	Mem     *vmach.MemoryImage // the shared memory, once
	Lines   []LineImage        // coherence directory, sorted by line
}

// Capture snapshots the system. The system may keep running without
// disturbing the snapshot.
func (s *System) Capture() *Snapshot {
	snap := &Snapshot{
		Mode:  s.Coh.mode,
		Costs: s.Coh.costs,
		Mem:   s.Mem.Capture(),
		Lines: s.Coh.capture(),
	}
	for _, k := range s.CPUs {
		snap.Kernels = append(snap.Kernels, k.CaptureShared())
	}
	return snap
}

// Fork returns an independent copy of the system, built from cfg as
// Restore builds it, that also carries the run state a Snapshot leaves
// out: which CPUs have finished with what verdict, and each kernel's
// sticky halt (kernel.Kernel.Fork). The copy's memory is a copy-on-write
// fork of the shared memory, so forking copies no page. Harness wiring —
// tracers and memory watchpoints — is the caller's to attach to the copy.
func (s *System) Fork(cfg Config) (*System, error) {
	cfg.CPUs = len(s.CPUs)
	cfg.Mode = s.Coh.mode
	cfg.Costs = s.Coh.costs
	cfg = defaultedConfig(cfg)
	c := &System{
		Mem:   s.Mem.Fork(),
		Coh:   s.Coh.clone(),
		done:  slices.Clone(s.done),
		verds: slices.Clone(s.verds),
	}
	for i, k := range s.CPUs {
		ck, err := k.Fork(kernelConfig(cfg, i, c.Mem))
		if err != nil {
			return nil, fmt.Errorf("smp: cpu%d: %w", i, err)
		}
		c.attach(ck)
	}
	return c, nil
}

// Restore builds a system from cfg and installs the snapshot. The CPU
// count, coherence mode and costs come from the snapshot; cfg supplies
// the profile, strategies, quantum and harness wiring, which must match
// the capturing config for the replay to be exact.
func Restore(cfg Config, snap *Snapshot) (*System, error) {
	cfg.CPUs = len(snap.Kernels)
	cfg.Mode = snap.Mode
	cfg.Costs = snap.Costs
	cfg = defaultedConfig(cfg)
	s := &System{
		Mem:   vmach.NewMemory(),
		Coh:   NewCoherence(cfg.Mode, cfg.Costs),
		done:  make([]bool, cfg.CPUs),
		verds: make([]error, cfg.CPUs),
	}
	// The shared memory is restored once, here: a kernel restored over
	// it leaves it alone.
	s.Mem.Restore(snap.Mem)
	s.Coh.restore(snap.Lines)
	for i, ks := range snap.Kernels {
		k, err := kernel.Restore(kernelConfig(cfg, i, s.Mem), ks)
		if err != nil {
			return nil, fmt.Errorf("smp: cpu%d: %w", i, err)
		}
		s.attach(k)
	}
	return s, nil
}

// Encode serializes the snapshot canonically.
func (s *Snapshot) Encode() []byte {
	// Encode the parts first, so the whole fits one allocation.
	blobs := make([][]byte, len(s.Kernels))
	size := len(smpMagic) + 4*3 + 8*3
	for i, ks := range s.Kernels {
		blobs[i] = ks.Encode()
		size += 4 + len(blobs[i])
	}
	mem := kernel.EncodeMemoryImage(s.Mem)
	size += 4 + len(mem) + 4 + 20*len(s.Lines)
	b := make([]byte, 0, size)
	b = append(b, smpMagic...)
	b = appendU32(b, smpVersion)
	b = appendU32(b, uint32(s.Mode))
	b = appendU64(b, s.Costs.Local)
	b = appendU64(b, s.Costs.Remote)
	b = appendU64(b, s.Costs.Invalidate)
	b = appendU32(b, uint32(len(s.Kernels)))
	for _, blob := range blobs {
		b = appendU32(b, uint32(len(blob)))
		b = append(b, blob...)
	}
	b = appendU32(b, uint32(len(mem)))
	b = append(b, mem...)
	b = appendU32(b, uint32(len(s.Lines)))
	for _, l := range s.Lines {
		b = appendU32(b, l.LN)
		b = appendU32(b, uint32(l.Home))
		b = appendU32(b, uint32(l.Writer))
		b = appendU64(b, l.Sharers)
	}
	return b
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(b []byte, v uint64) []byte {
	return appendU32(appendU32(b, uint32(v)), uint32(v>>32))
}

// smpDecoder is a minimal cursor over an encoded snapshot.
type smpDecoder struct {
	b   []byte
	off int
	err error
}

func (d *smpDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s at offset %d", ErrBadSnapshot, fmt.Sprintf(format, args...), d.off)
	}
}

func (d *smpDecoder) take(n int) []byte {
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

func (d *smpDecoder) u32() uint32 {
	s := d.take(4)
	if s == nil {
		return 0
	}
	return uint32(s[0]) | uint32(s[1])<<8 | uint32(s[2])<<16 | uint32(s[3])<<24
}

func (d *smpDecoder) u64() uint64 {
	lo := d.u32()
	return uint64(lo) | uint64(d.u32())<<32
}

// blob reads a length-prefixed byte blob, bounded by the remaining input.
func (d *smpDecoder) blob() []byte {
	n := d.u32()
	if d.err == nil && int(n) > len(d.b)-d.off {
		d.fail("blob length %d exceeds input", n)
		return nil
	}
	return d.take(int(n))
}

// maxCPUs bounds the decoded CPU count: far above any real system, low
// enough that a fuzzed count cannot allocate much before failing.
const maxCPUs = 1 << 10

// DecodeSnapshot parses an encoded SMP checkpoint. Malformed input —
// truncation, bad magic, bad version, an embedded kernel snapshot that
// does not decode, trailing bytes — yields an error matching
// ErrBadSnapshot; the decoder never panics on garbage.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	d := &smpDecoder{b: data}
	if magic := d.take(len(smpMagic)); d.err == nil && string(magic) != smpMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	if v := d.u32(); d.err == nil && v != smpVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadSnapshot, v)
	}
	s := &Snapshot{}
	s.Mode = Mode(d.u32())
	if d.err == nil && s.Mode != CC && s.Mode != DSM {
		return nil, fmt.Errorf("%w: unknown mode %d", ErrBadSnapshot, s.Mode)
	}
	s.Costs.Local = d.u64()
	s.Costs.Remote = d.u64()
	s.Costs.Invalidate = d.u64()
	ncpu := d.u32()
	if d.err == nil && ncpu > maxCPUs {
		return nil, fmt.Errorf("%w: implausible CPU count %d", ErrBadSnapshot, ncpu)
	}
	for i := uint32(0); i < ncpu && d.err == nil; i++ {
		blob := d.blob()
		if d.err != nil {
			break
		}
		ks, err := kernel.DecodeSnapshot(blob)
		if err != nil {
			return nil, fmt.Errorf("%w: cpu%d: %v", ErrBadSnapshot, i, err)
		}
		s.Kernels = append(s.Kernels, ks)
	}
	memBlob := d.blob()
	if d.err == nil {
		mem, err := kernel.DecodeMemoryImage(memBlob)
		if err != nil {
			return nil, fmt.Errorf("%w: shared memory: %v", ErrBadSnapshot, err)
		}
		s.Mem = mem
	}
	nlines := d.u32()
	if d.err == nil && int(nlines)*20 > len(d.b)-d.off {
		return nil, fmt.Errorf("%w: line count %d exceeds input", ErrBadSnapshot, nlines)
	}
	var prev uint32
	for i := uint32(0); i < nlines && d.err == nil; i++ {
		l := LineImage{LN: d.u32(), Home: int32(d.u32()), Writer: int32(d.u32()), Sharers: d.u64()}
		if d.err == nil && i > 0 && l.LN <= prev {
			return nil, fmt.Errorf("%w: line table not strictly sorted", ErrBadSnapshot)
		}
		prev = l.LN
		s.Lines = append(s.Lines, l)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadSnapshot, len(d.b)-d.off)
	}
	return s, nil
}
