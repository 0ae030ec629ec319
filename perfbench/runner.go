package main

import (
	"errors"
	"fmt"
	"runtime"
	rtm "runtime/metrics"
	"time"

	"repro/internal/metrics"
)

// workloadDef is one benchmark workload. README.md explains the choice
// of each.
type workloadDef struct {
	name      string
	keys      int     // Zipf key domain
	zipf      float64 // skew z
	fluct     float64 // fluctuation f, applied every interval
	budget    int64   // tuples per interval
	instances int     // per stage
	cluster   bool
}

var workloads = []*workloadDef{
	{name: "hot-narrow", keys: 1000, zipf: 0.85, budget: 50000, instances: 10},
	{name: "fluctuating-wide", keys: 100000, zipf: 0.85, fluct: 1.0, budget: 10000, instances: 10},
	{name: "cluster-unix", keys: 10000, zipf: 0.85, budget: 20000, instances: 8, cluster: true},
}

const (
	// minKeys is the controller's warm-up guard (topology.MinKeys).
	minKeys = 64
	// warmup intervals run before the timer starts, so caches, pools and
	// the routing table have settled.
	warmup = cycle / 2
	// checked is how many leading intervals of every system are compared
	// with the oracle; the paper's quality metrics average over them, so
	// they are exact per seed.
	checked = 2 * cycle
	// minPlanSamples is the least number of plan timings behind
	// plan_ms_p50.
	minPlanSamples = 501
)

// system is a built workload the driver steps one interval at a time.
type system interface {
	// runInterval drives one interval and checks tuple conservation.
	runInterval() error
	series() []metrics.Interval
	tableSize() int
	// spans splits a traced interval that ran between t0 and t1.
	spans(t0, t1 int64) spanRec
	stop() error
}

func build(w *workloadDef, in *input, tr *tracer) (system, error) {
	if w.cluster {
		return deployCluster(w, in, tr)
	}
	return buildInproc(w, in, measured, tr), nil
}

// spanRec is one traced interval's layer spans in nanoseconds. For the
// cluster workload feed is the coordinator's emit span, harvest the
// close-to-Decide span net of the plan (so the plan is a span of its
// own there, while in process it nests in control), control the rest of
// the round and model the drive's tail.
type spanRec struct {
	wall, start, draw, feed, busy, close, harvest, control, plan, model int64
	keys, plans                                                         int64
}

// phase is what one timed stretch of intervals measured.
type phase struct {
	attempted, failed int
	err               error
	timed             int
	emitted           int64
	wall              time.Duration // sum of timed interval walls
	ms                []float64     // per timed interval wall, ms
	blocks            []float64     // tuples/s of each timed input cycle
	cycleP50          []float64     // median interval wall of each timed input cycle, ms
	cycleSlow         []float64     // host slowdown during each timed input cycle (with a hostRef)
	peakHeap          int64         // highest live heap at a timed interval's end, bytes
	spans             []spanRec
	tableMax          int
	allocBytes        uint64
	gcCycles          uint64
	gcPauseNs         uint64
}

// tuplesPerS is the upper quartile of the timed input cycles' throughput.
// Every cycle replays the same tuples; a cycle is slow either because the
// system is or because the host took the CPU away (hypervisor steal came
// in bursts of up to a third of the CPU on a 2-vCPU virtual machine),
// and the better quartile keeps the first and drops most of the second.
func (p *phase) tuplesPerS() float64 { return quantile(p.blocks, 0.75) }

// heapSamples is readRuntime's reusable sample set (driver goroutine
// only), so sampling at every interval boundary allocates nothing.
var heapSamples = []rtm.Sample{
	{Name: "/gc/heap/live:bytes"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

// readRuntime samples the live heap (as of the last GC mark),
// cumulative allocation and GC cycles without stopping the world. The
// live heap, unlike heap-in-use, does not swing with the collector's
// pacing headroom.
func readRuntime() (live int64, allocs, cycles uint64) {
	rtm.Read(heapSamples)
	return int64(heapSamples[0].Value.Uint64()), heapSamples[1].Value.Uint64(), heapSamples[2].Value.Uint64()
}

// drive runs warmup intervals, then times intervals until at least
// seconds have passed, a whole number of input cycles has run and the
// oracle window is covered. With tr set it records every timed
// interval's spans; between timed intervals it ticks ref. It stops at
// the first failing interval.
func drive(sys system, seconds float64, tr *tracer, ref *hostRef) *phase {
	ph := &phase{}
	step := func() bool {
		ph.attempted++
		if err := sys.runInterval(); err != nil {
			ph.failed++
			ph.err = err
			return false
		}
		return true
	}
	for i := 0; i < warmup; i++ {
		if !step() {
			return ph
		}
	}
	runtime.GC()
	clk := newClock()
	if tr != nil {
		clk = tr.clk
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	_, alloc0, cyc0 := readRuntime()
	budget := time.Duration(seconds * float64(time.Second))
	var blockEmitted int64
	var blockWall time.Duration
	refStart := 0
	if ref != nil {
		refStart = len(ref.ns)
	}
	for {
		if tr != nil {
			tr.reset()
		}
		t0 := clk.now()
		ok := step()
		t1 := clk.now()
		if !ok {
			return ph
		}
		s := sys.series()
		ph.timed++
		ph.emitted += s[len(s)-1].Emitted
		ph.wall += time.Duration(t1 - t0)
		ph.ms = append(ph.ms, float64(t1-t0)/1e6)
		blockEmitted += s[len(s)-1].Emitted
		blockWall += time.Duration(t1 - t0)
		if ph.timed%cycle == 0 {
			ph.blocks = append(ph.blocks, float64(blockEmitted)/blockWall.Seconds())
			ph.cycleP50 = append(ph.cycleP50, quantile(ph.ms[len(ph.ms)-cycle:], 0.50))
			blockEmitted, blockWall = 0, 0
			if ref != nil {
				if len(ref.ns) == refStart {
					ref.sample()
				}
				ph.cycleSlow = append(ph.cycleSlow, ref.slowdownFrom(refStart))
				refStart = len(ref.ns)
			}
		}
		h, _, _ := readRuntime()
		ph.peakHeap = max(ph.peakHeap, h)
		if tr != nil {
			ph.spans = append(ph.spans, sys.spans(t0, t1))
			ph.tableMax = max(ph.tableMax, sys.tableSize())
		}
		if ph.wall >= budget && ph.timed%cycle == 0 && warmup+ph.timed >= checked {
			break
		}
		ref.tick()
	}
	_, alloc1, cyc1 := readRuntime()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	ph.allocBytes, ph.gcCycles = alloc1-alloc0, cyc1-cyc0
	ph.gcPauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs
	return ph
}

// measure drives a built system, compares its leading intervals with
// the oracle series and stops it.
func measure(sys system, want []metrics.Interval, seconds float64, tr *tracer, ref *hostRef) *phase {
	ph := drive(sys, seconds, tr, ref)
	if ph.err == nil {
		if bad := mismatches(sys.series(), want); bad > 0 {
			ph.failed += bad
			ph.err = fmt.Errorf("%d of the first %d intervals differ from the oracle", bad, checked)
		}
	}
	if err := sys.stop(); err != nil && ph.err == nil {
		ph.failed++
		ph.err = fmt.Errorf("stop: %w", err)
	}
	return ph
}

// oracleSeries runs the workload's retained oracle, untimed, for the
// checked intervals: in process the Fig. 5 pausing migration with the
// store-and-forward barrier, for the cluster its in-process BuildLocal
// reference. It also returns the inputs the oracle's controller planned
// on, which the measured system plans on too when the two agree.
func oracleSeries(w *workloadDef, in *input) ([]metrics.Interval, []planInput) {
	if w.cluster {
		capture := &planCapture{}
		sys := clusterSpec(w, newReplay(in), "perfbench/count", capture).BuildLocal()
		capture.ctl = sys.Controller(1)
		sys.Run(checked)
		sys.Stop()
		return sys.Recorder().Series, capture.kept
	}
	p := buildInproc(w, in, oracle, nil)
	p.sys.Run(checked)
	p.sys.Stop()
	return p.series(), p.planner.kept
}

// mismatches counts the leading intervals whose paper observables
// (emission, skewness, migration share, routing-table size) differ from
// the oracle's. Plan time is wall clock and not compared.
func mismatches(got, want []metrics.Interval) int {
	bad := 0
	for i := 0; i < checked; i++ {
		if i >= len(got) || i >= len(want) {
			bad++
			continue
		}
		g, o := got[i], want[i]
		if g.Emitted != o.Emitted || g.Skewness != o.Skewness ||
			g.MigrationPct != o.MigrationPct || g.TableSize != o.TableSize {
			bad++
		}
	}
	return bad
}

// quality averages the paper's quality outputs over the checked
// intervals: skewness over every interval, migration share and table
// size over the intervals that rebalanced (per adjustment, as
// metrics.Recorder reports them).
func quality(s []metrics.Interval) (skew, mig, table float64, err error) {
	if len(s) < checked {
		return 0, 0, 0, errors.New("fewer intervals than the oracle window")
	}
	var sk, mg, tb []float64
	for _, m := range s[:checked] {
		sk = append(sk, m.Skewness)
		if m.Rebalanced {
			mg = append(mg, m.MigrationPct)
			tb = append(tb, float64(m.TableSize))
		}
	}
	if len(mg) == 0 {
		return 0, 0, 0, errors.New("no rebalance in the oracle window")
	}
	return mean(sk), mean(mg), mean(tb), nil
}
