package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// The reference loop measures how fast the host's memory system is right
// now. On a shared host, other guests' cache and memory traffic slow
// this repository's memory-bound interpreters by a quarter or more for
// minutes at a time, while CPU time still counts every slowed cycle. The
// loop tracks that drift only in part, so the end-to-end times are
// scaled by the square root of refNominal over the loop's median CPU
// time in the same run: half the correction, on a log scale. On a 2-vCPU
// Intel Xeon KVM guest, over 110 rounds of the loop interleaved with one
// smp-server, uniproc-server and crash-restart pass each, the passes'
// log CPU time moved by 0.3 to 0.9 times the loop's. Over blocks of five
// rounds, the quartile spread of the block medians was 8%, 8% and 12%
// raw, 4%, 5% and 9% fully scaled, and 6%, 5% and 10% half scaled. In
// another twenty-minute period the fully scaled times of every workload
// read 25-40% low while as many passes as usual fitted in a run: the
// loop had slowed alone. Half scaling keeps most of the gain and halves
// the error of such a period. The loop is the benchmark's own code and
// its buffer is off the Go heap, and measure collects the heap before
// each sample, so a change to the repository reaches the loop only
// through what outlives a collection: a larger live heap that leaves the
// caches colder, or goroutines still running. Samples come before and
// after the passes, so a workload that leaves more behind slows some of
// them and shifts the median less.
const (
	refWords   = 1 << 22 // a 16 MiB buffer, larger than the caches
	refIters   = 1 << 21
	refEvery   = time.Second // at most one reference sample per second of passes
	minRefs    = 5
	refNominal = 320 * time.Millisecond // median refIters CPU time on the guest above
)

// reference is the loop's buffer. It is mapped outside the Go heap, so
// that it does not change when the workload's collector runs.
type reference struct {
	mem []byte
	buf []uint32
}

func newReference() (*reference, error) {
	mem, err := syscall.Mmap(-1, 0, refWords*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, fmt.Errorf("reference buffer: %w", err)
	}
	r := &reference{mem: mem, buf: unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), refWords)}
	for i := range r.buf {
		r.buf[i] = uint32(i)
	}
	return r, nil
}

func (r *reference) close() error { return syscall.Munmap(r.mem) }

// sample runs the loop once and returns its CPU time in seconds: random
// dependent loads and stores across the buffer.
func (r *reference) sample() float64 {
	const mask = refWords - 1
	start := readClock()
	x, s := uint32(1), uint32(0)
	for i := 0; i < refIters; i++ {
		x = x*1664525 + 1013904223
		j := (x ^ s) & mask
		s += r.buf[j]
		r.buf[(j*7)&mask] += s
	}
	r.buf[0] = s // keep the loop's result live
	return start.elapsed().cpu.Seconds()
}
