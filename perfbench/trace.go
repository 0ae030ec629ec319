package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/balance"
	"repro/internal/control"
	"repro/internal/controller"
	"repro/internal/engine"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/tuple"
)

// This file holds the benchmark's outside-in instrumentation: wrappers
// around the program's public entry and extension points (spout,
// operator, planner, control policy, snapshot hooks) that stamp layer
// boundaries. Every wrapper forwards each optional interface of what it
// wraps and adds only no-op hooks, so a traced system computes exactly
// what an untraced one does. Stamps are atomics because the points they
// mark run on task, control-server and worker goroutines.

// clock is a monotonic nanosecond clock shared by all stamps of a run.
type clock struct{ base time.Time }

func newClock() clock      { return clock{base: time.Now()} }
func (c clock) now() int64 { return int64(time.Since(c.base)) }

// maxStore raises a to v if v is larger.
func maxStore(a *atomic.Int64, v int64) {
	for {
		old := a.Load()
		if v <= old || a.CompareAndSwap(old, v) {
			return
		}
	}
}

// tracer collects one interval's boundary stamps and layer counters.
// reset clears the per-interval state before each RunInterval.
type tracer struct {
	clk clock

	firstSpout atomic.Int64 // first spout call (0 = none yet)
	lastSpout  atomic.Int64 // last spout return
	draw       atomic.Int64 // ns inside the spout callback
	lastFlush  atomic.Int64 // latest FlushInterval stamp across tasks
	busy       atomic.Int64 // ns inside ProcessBatch/Process, all tasks
	snapAt     atomic.Int64 // Engine.OnSnapshot entry
	ctlAt      atomic.Int64 // post-controller hook
	snapKeys   atomic.Int64
	plan       atomic.Int64 // ns inside Planner.Plan
	plans      atomic.Int64
	decideAt   atomic.Int64 // cluster: timing policy's Decide
	roundAt    atomic.Int64 // cluster: Coordinator.OnRound
}

func newTracer() *tracer { return &tracer{clk: newClock()} }

func (t *tracer) reset() {
	for _, a := range []*atomic.Int64{&t.firstSpout, &t.lastSpout, &t.draw, &t.lastFlush,
		&t.busy, &t.snapAt, &t.ctlAt, &t.snapKeys, &t.plan, &t.plans, &t.decideAt, &t.roundAt} {
		a.Store(0)
	}
}

// spout wraps a replay spout, timing the callback and stamping the
// first call and last return of the interval.
func (t *tracer) spout(sb engine.SpoutBatch) engine.SpoutBatch {
	return func(dst []tuple.Tuple) int {
		t0 := t.clk.now()
		t.firstSpout.CompareAndSwap(0, t0)
		n := sb(dst)
		t1 := t.clk.now()
		t.draw.Add(t1 - t0)
		t.lastSpout.Store(t1)
		return n
	}
}

// countOp is the operator shape the workloads count with
// (engine.StatefulCount): a batch operator that also folds split keys.
type countOp interface {
	engine.Operator
	engine.BatchOperator
	engine.SplitFolder
}

// tracedOp times an operator's batches and stamps its interval flush.
// FlushInterval is a no-op hook added by the wrapper (the wrapped
// operator is not an interval flusher); the split-folding methods are
// forwarded unchanged.
type tracedOp struct {
	inner countOp
	tr    *tracer
}

func (o tracedOp) Process(ctx *engine.TaskCtx, tp tuple.Tuple) {
	t0 := o.tr.clk.now()
	o.inner.Process(ctx, tp)
	o.tr.busy.Add(o.tr.clk.now() - t0)
}

func (o tracedOp) ProcessBatch(ctx *engine.TaskCtx, ts []tuple.Tuple) {
	t0 := o.tr.clk.now()
	o.inner.ProcessBatch(ctx, ts)
	o.tr.busy.Add(o.tr.clk.now() - t0)
}

func (o tracedOp) FlushInterval(*engine.TaskCtx) { maxStore(&o.tr.lastFlush, o.tr.clk.now()) }

func (o tracedOp) SplitAbsorb(tp tuple.Tuple) int64 { return o.inner.SplitAbsorb(tp) }

func (o tracedOp) SplitMerge(ctx *engine.TaskCtx, k tuple.Key, delta, freq, mem int64) {
	o.inner.SplitMerge(ctx, k, delta, freq, mem)
}

// timedPlanner times Planner.Plan into a tracer and, when keep is set,
// keeps a copy of every planning input so plan generation can be
// re-timed later.
type timedPlanner struct {
	inner balance.Planner
	tr    *tracer // nil in untraced runs
	keep  bool

	mu   sync.Mutex
	kept []planInput
}

// planInput is one snapshot a controller planned on, with its config.
type planInput struct {
	snap *stats.Snapshot
	cfg  balance.Config
}

func (p *timedPlanner) Name() string { return p.inner.Name() }

func (p *timedPlanner) Plan(snap *stats.Snapshot, cfg balance.Config) *balance.Plan {
	if p.keep {
		p.mu.Lock()
		p.kept = append(p.kept, planInput{snap: snap.Clone(), cfg: cfg})
		p.mu.Unlock()
	}
	t0 := time.Now()
	plan := p.inner.Plan(snap, cfg)
	if p.tr != nil {
		p.tr.plan.Add(int64(time.Since(t0)))
		p.tr.plans.Add(1)
	}
	return plan
}

// planCapture is a no-op control.Policy appended after a stage's
// rebalance controller that keeps a copy of every snapshot the
// controller planned on (its applied-plan count grew this round).
type planCapture struct {
	ctl  *controller.Controller
	seen int
	kept []planInput
}

func (p *planCapture) Decide(_ control.Env, snap *stats.Snapshot) []control.Command {
	if n := p.ctl.Rebalances(); n > p.seen {
		p.seen = n
		p.kept = append(p.kept, planInput{snap: snap.Clone(), cfg: p.ctl.Cfg})
	}
	return nil
}

// retimePlans re-runs the Mixed planner on the kept planning inputs,
// round-robin, at least minPlanSamples times and at least once per
// input, and returns each call's wall time in ms; between calls it ticks
// ref. The planner is a pure function of its input, so this measures
// plan generation on exactly the snapshots the run planned on, without
// the timed loop's noise. Each call plans on a fresh copy of its
// snapshot in one reused buffer: a new clone per call (megabytes on
// fluctuating-wide) kept the collector running through most timings,
// and the plan times then moved with its pacing rather than the
// planner's own work.
func retimePlans(kept []planInput, ref *hostRef) []float64 {
	runtime.GC() // start from a collected heap, as the timed window did
	planner := topology.PlannerFor(topology.AlgMixed, 0, 0)
	n := max(minPlanSamples, len(kept))
	out := make([]float64, 0, n)
	var snap stats.Snapshot
	for i := 0; i < n; i++ {
		ref.tick()
		in := kept[i%len(kept)]
		snap = stats.Snapshot{Interval: in.snap.Interval, ND: in.snap.ND, Keys: append(snap.Keys[:0], in.snap.Keys...)}
		t0 := time.Now()
		planner.Plan(&snap, in.cfg)
		out = append(out, float64(time.Since(t0))/1e6)
	}
	return out
}

// timingPolicy is a no-op control.Policy appended after a cluster
// stage's rebalance controller: its Decide marks the point where the
// controller (and its plan) has finished.
type timingPolicy struct{ tr *tracer }

func (p timingPolicy) Decide(control.Env, *stats.Snapshot) []control.Command {
	p.tr.decideAt.Store(p.tr.clk.now())
	return nil
}
