package main

import "time"

// The benchmark runs on a shared virtual machine whose speed drifts by
// far more than a regression bound: a fixed compute loop ran 1.6× slower
// in one minute than in the next, and a run's raw timings moved with it.
// So every timed phase interleaves a fixed reference kernel with its own
// work, and each end-to-end timing is scaled by the ratio of the
// kernel's nominal time to its median time in that phase: it reads as if
// measured on a host running the kernel at refNominalNs. The kernel is
// the benchmark's own code and never changes with the program, so a
// program that gets slower still reads slower; only the host's drift
// cancels. The raw timings are printed next to the scaled ones.

// refIters is the reference kernel's loop count.
const refIters = 100_000

// refNominalNs is a round figure near the reference kernel's median time
// on the reference host (a 2-vCPU virtual machine, Intel Xeon at
// 2.0 GHz). It only sets the scale of the reported numbers.
const refNominalNs = 200_000.0

// Sample spacing. In the closed loop a sample every 20 ms costs about
// 2 % of the loop's time and gives every input cycle (a quarter second or
// more) ten or more samples of its own. Plan re-timing is short, so it
// samples every 2 ms.
const (
	refEveryLoop = 20 * time.Millisecond
	refEveryPlan = 2 * time.Millisecond
)

// refTable is the kernel's random-access table. At 32 KiB it fits the
// first-level data cache, and the kernel loads it before the clock
// starts: what the program left in the caches must not change the
// kernel's time, or the scaling would absorb part of a change to the
// program. Only the goroutine that runs the intervals touches it.
var refTable [1 << 12]uint64

// refKernel runs the fixed reference work and returns its wall time in
// nanoseconds: four independent multiply-add chains feeding table
// updates. Independent chains keep the core's execution units busy, as
// the program's own code does, so the kernel slows as the program does
// when another tenant shares the physical core; one dependent chain left
// them idle and, on a slow stretch, read half the slowdown the planner
// felt. It allocates nothing, so it never triggers or assists a garbage
// collection.
func refKernel() float64 {
	for i := range refTable {
		refTable[i]++
	}
	t0 := time.Now()
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	for i := 0; i < refIters; i++ {
		a = a*6364136223846793005 + 1442695040888963407
		b = b*6364136223846793005 + 1442695040888963407
		c = c*6364136223846793005 + 1442695040888963407
		d = d*6364136223846793005 + 1442695040888963407
		refTable[a>>52] += b
		refTable[c>>52] += d
	}
	return float64(time.Since(t0))
}

// hostRef collects reference-kernel timings interleaved with one
// measured phase. A nil *hostRef records nothing.
type hostRef struct {
	every time.Duration // least time between two samples taken by tick
	ns    []float64
	next  time.Time
}

// sample runs the kernel once.
func (h *hostRef) sample() {
	if h != nil {
		h.ns = append(h.ns, refKernel())
	}
}

// tick runs the kernel if every has passed since the last sample, so
// samples spread evenly over the phase's wall time.
func (h *hostRef) tick() {
	if h != nil && time.Now().After(h.next) {
		h.sample()
		h.next = time.Now().Add(h.every)
	}
}

// slowdown is the host's slowness during the phase: the kernel's median
// time over its nominal time. Timings are divided by it, rates
// multiplied.
func (h *hostRef) slowdown() float64 { return h.slowdownFrom(0) }

// slowdownFrom is the slowdown over the samples from the i-th on.
func (h *hostRef) slowdownFrom(i int) float64 { return quantile(h.ns[i:], 0.5) / refNominalNs }
