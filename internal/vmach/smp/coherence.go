// Package smp extends the simulated uniprocessor to a small shared-memory
// multiprocessor: N kernels (one per CPU), each with its own register
// context, timer, and run queue, stepping round-robin at instruction
// granularity over one shared physical memory.
//
// The paper's §7 observation motivates the package: a restartable atomic
// sequence arbitrates only among threads of one processor, so on a
// multiprocessor it must be combined with a cross-processor primitive —
// "a hybrid scheme in which restartable atomic sequences are used to
// implement spin locks". The package supplies the substrate for measuring
// that hybrid against its alternatives: a coherence cost model charges
// every memory access by line ownership and counts remote memory
// references (RMRs), the metric the recoverable-mutual-exclusion
// literature (Chan & Woelfel, PAPERS.md) uses for lock quality.
package smp

import (
	"sort"

	"repro/internal/vmach"
)

// LineShift sets the coherence granularity: 1<<LineShift bytes per line
// (64, a typical L2 line). It is the same geometry the persistence model
// uses for its volatile write-back buffer (vmach.LineShift).
const LineShift = vmach.LineShift

// Mode selects how remote memory references are counted, following the
// RME literature's two machine models.
type Mode int

const (
	// CC is the cache-coherent model: a read is remote when the CPU has
	// no cached copy of the line; a write is remote when any other CPU
	// does (it must be invalidated).
	CC Mode = iota
	// DSM is the distributed-shared-memory model: every line has a home
	// CPU (its first toucher), and any access from elsewhere is remote.
	DSM
)

func (m Mode) String() string {
	switch m {
	case CC:
		return "cc"
	case DSM:
		return "dsm"
	}
	return "?"
}

// Costs are the extra cycles the coherence model charges on top of the
// profile's base load/store cost.
type Costs struct {
	Local      uint64 // line already owned/cached: every access pays this
	Remote     uint64 // line transferred from another CPU or its home
	Invalidate uint64 // per remote copy invalidated by a write
}

// DefaultCosts approximate a 1992-era shared-bus machine: a remote line
// transfer costs about a bus transaction, invalidations a little less.
func DefaultCosts() Costs { return Costs{Local: 0, Remote: 20, Invalidate: 8} }

// line is the directory entry for one coherence line.
type line struct {
	home    int    // first-touching CPU (DSM home)
	writer  int    // last writer, -1 if never written
	sharers uint64 // bitmap of CPUs holding a copy
}

// Coherence is the directory: per-line ownership shared by all CPUs of a
// System. Each CPU talks to it through its own port (a vmach.CoherenceHook
// that closes over the CPU number), so the machine layer stays ignorant
// of CPU identity.
type Coherence struct {
	mode     Mode
	costs    Costs
	lines    map[uint32]*line
	machines []*vmach.Machine // indexed by CPU, for reservation snooping
}

// NewCoherence creates an empty directory.
func NewCoherence(mode Mode, costs Costs) *Coherence {
	return &Coherence{mode: mode, costs: costs, lines: make(map[uint32]*line)}
}

// Mode reports the counting model.
func (c *Coherence) Mode() Mode { return c.mode }

// attach registers cpu's machine and returns its port. Ports must be
// attached in CPU order.
func (c *Coherence) attach(m *vmach.Machine) vmach.CoherenceHook {
	cpu := len(c.machines)
	c.machines = append(c.machines, m)
	return &port{c: c, cpu: cpu}
}

// port adapts the directory to one CPU's machine.
type port struct {
	c   *Coherence
	cpu int
}

// Access implements vmach.CoherenceHook.
func (p *port) Access(addr uint32, write bool) (extra uint64, rmr bool) {
	return p.c.access(p.cpu, addr, write)
}

// access charges one memory access and updates the directory. A CPU's
// first-ever touch of a line installs it locally with no remote cost —
// so a single-CPU run performs zero RMRs by construction, in both modes.
func (c *Coherence) access(cpu int, addr uint32, write bool) (extra uint64, rmr bool) {
	ln := addr >> LineShift
	l, ok := c.lines[ln]
	if !ok {
		l = &line{home: cpu, writer: -1, sharers: 1 << uint(cpu)}
		if write {
			l.writer = cpu
		}
		c.lines[ln] = l
		return c.costs.Local, false
	}
	if write {
		c.snoopReservations(cpu, ln)
	}
	self := uint64(1) << uint(cpu)
	switch c.mode {
	case DSM:
		// Home never migrates; remoteness is positional.
		if write {
			l.writer = cpu
			l.sharers = self
		} else {
			l.sharers |= self
		}
		if l.home != cpu {
			return c.costs.Remote, true
		}
		return c.costs.Local, false
	default: // CC
		if write {
			others := popcount(l.sharers &^ self)
			l.writer = cpu
			l.sharers = self
			if others > 0 {
				return c.costs.Remote + c.costs.Invalidate*uint64(others), true
			}
			return c.costs.Local, false
		}
		if l.sharers&self != 0 {
			return c.costs.Local, false
		}
		l.sharers |= self
		return c.costs.Remote, true
	}
}

// snoopReservations clears every other CPU's ll/sc reservation on the
// written line: the R4000 contract that an intervening store makes the
// next sc fail.
func (c *Coherence) snoopReservations(cpu int, ln uint32) {
	for i, m := range c.machines {
		if i == cpu {
			continue
		}
		if addr, ok := m.Reservation(); ok && addr>>LineShift == ln {
			m.ClearReservation()
		}
	}
}

func popcount(v uint64) int {
	n := 0
	for v != 0 {
		v &= v - 1
		n++
	}
	return n
}

// LineImage is one captured directory entry, for checkpoints.
type LineImage struct {
	LN      uint32
	Home    int32
	Writer  int32
	Sharers uint64
}

// capture snapshots the directory, sorted by line number so equal
// directories capture equal.
func (c *Coherence) capture() []LineImage {
	img := make([]LineImage, 0, len(c.lines))
	for ln, l := range c.lines {
		img = append(img, LineImage{LN: ln, Home: int32(l.home), Writer: int32(l.writer), Sharers: l.sharers})
	}
	sort.Slice(img, func(i, j int) bool { return img[i].LN < img[j].LN })
	return img
}

// clone is a copy of the directory's lines, mode and costs, with no
// machine attached.
func (c *Coherence) clone() *Coherence {
	n := &Coherence{mode: c.mode, costs: c.costs, lines: make(map[uint32]*line, len(c.lines))}
	for ln, l := range c.lines {
		cl := *l
		n.lines[ln] = &cl
	}
	return n
}

// restore replaces the directory's contents with the image's.
func (c *Coherence) restore(img []LineImage) {
	c.lines = make(map[uint32]*line, len(img))
	for _, li := range img {
		c.lines[li.LN] = &line{home: int(li.Home), writer: int(li.Writer), sharers: li.Sharers}
	}
}
