package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// The box this benchmark has to run on is shared, and what its neighbours
// take is the memory system: with identical code every workload reads 1.2x
// to 1.6x slower for ten minutes at a time and then recovers, CPU time
// inflating with wall time. In those phases dependent integer arithmetic
// runs at full speed (+2%), a pointer chase through 4 MB is 15% slower, a
// sweep over 32 MB 20-25%, and the allocation-heavy workloads 25-60%. No
// window that fits the driver's budget averages ten minutes out. So the
// harness measures the box as it measures the program: a write sweep over
// 32 MB runs about five times a second between ops, and every reported time
// is scaled by refSweepMs over the sweep's median time in the same phase of
// the run. Reported times are therefore "milliseconds at reference box
// speed"; every listing says how fast the box really was, and multiplying a
// time by that factor gives back what the clock read. The sweep slows less
// than the workloads do (over 25 minutes of alternating sweeps and mining
// ops the ops' standard deviation fell from 10.4% to 4.2% after scaling), so
// it takes out about half of a slow phase, not all of it. Next to a workload
// whose collector is always running the sweep itself reads about a tenth
// slow, the same on every run.

const (
	// sweepWords is the sweep's buffer, in 8-byte words: 32 MB, past any
	// cache share a two-core guest gets.
	sweepWords = 4 << 20
	// refSweepMs is one sweep on the reference box (this repository's
	// two-core sandbox) when nothing disturbs it.
	refSweepMs = 5.0
	// sweepEvery is the sampling period inside a window.
	sweepEvery = 200 * time.Millisecond
)

// boxSpeed samples the box's memory speed. It is used from one goroutine at
// a time. The buffer is mapped outside the Go heap: 32 MB of live heap would
// raise the collector's trigger and spare the small workloads nine tenths of
// their GC cycles. The sweep does not allocate either, so the measurement
// and the program's heap do not reach each other.
type boxSpeed struct {
	mem     []byte   // the anonymous mapping
	buf     []uint64 // the same bytes, as words
	round   uint64
	last    time.Time
	samples []float64
	spentMs float64 // every sweep so far, summed
}

// newBoxSpeed maps the buffer and touches it once.
func newBoxSpeed() (*boxSpeed, error) {
	mem, err := syscall.Mmap(-1, 0, sweepWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map the box-speed buffer: %w", err)
	}
	b := &boxSpeed{mem: mem, buf: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), sweepWords)}
	b.sample()
	b.samples = b.samples[:0] // the first sweep pays the page faults
	return b, nil
}

// close unmaps the buffer.
func (b *boxSpeed) close() {
	b.buf = nil
	_ = syscall.Munmap(b.mem) // nothing to do about a failed unmap of scratch memory
}

// residentMB is what the buffer adds to the process's resident set.
func (b *boxSpeed) residentMB() float64 { return float64(len(b.buf)) * 8 / (1 << 20) }

// sample sweeps the buffer once and records how long it took.
func (b *boxSpeed) sample() {
	t := time.Now()
	b.round++
	for i := range b.buf {
		b.buf[i] = b.round
	}
	ms := msSince(t)
	b.samples = append(b.samples, ms)
	b.spentMs += ms
	b.last = time.Now()
}

// sampleIfDue samples when the last sample is at least sweepEvery old.
func (b *boxSpeed) sampleIfDue() {
	if time.Since(b.last) >= sweepEvery {
		b.sample()
	}
}

// take closes a phase: it samples once more, returns the phase's speed
// factor (median sweep time over the reference: above 1 on a slow box) and
// starts the next phase.
func (b *boxSpeed) take() float64 {
	b.sample()
	factor := median(b.samples) / refSweepMs
	b.samples = b.samples[:0]
	return factor
}
