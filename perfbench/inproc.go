package main

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/topology"
)

// inproc is a single-stage in-process system: spout → StatefulCount
// stage under the Mixed controller.
type inproc struct {
	sys     *topology.System
	planner *timedPlanner // nil unless traced or the oracle
	tr      *tracer
	// badIntervals counts intervals whose harvested tuple count differed
	// from the interval's emission (set by the snapshot hook).
	badIntervals int
}

// inprocMode selects how a system is built: measured (pause-free, as
// shipped), or the retained oracle (Fig. 5 pausing migration plus the
// store-and-forward barrier).
type inprocMode int

const (
	measured inprocMode = iota
	oracle
)

// buildInproc assembles a workload's system over a fresh replay of in.
// A non-nil tr installs the tracing wrappers and boundary hooks.
func buildInproc(w *workloadDef, in *input, mode inprocMode, tr *tracer) *inproc {
	rep := newReplay(in)
	sb := engine.SpoutBatch(rep.Next)
	op := func(int) engine.Operator { return engine.StatefulCount }
	if tr != nil {
		sb = tr.spout(sb)
		op = func(int) engine.Operator {
			return tracedOp{inner: engine.StatefulCount.(countOp), tr: tr}
		}
	}
	p := &inproc{tr: tr}
	stage := []topology.StageOption{
		topology.Instances(w.instances),
		topology.WithAlgorithm(topology.AlgMixed),
		topology.MinKeys(minKeys),
	}
	if tr != nil || mode == oracle {
		// Traced runs time the planner; the oracle keeps its inputs.
		p.planner = &timedPlanner{inner: topology.PlannerFor(topology.AlgMixed, 0, 0), tr: tr, keep: mode == oracle}
		stage = append(stage, topology.WithPlanner(p.planner))
	}
	opts := []topology.Option{
		topology.SpoutBatch(sb),
		topology.Budget(w.budget),
		topology.AdvanceEach(rep.Advance),
	}
	if mode == oracle {
		opts = append(opts, topology.PausingMigration(), topology.StoreAndForward())
	}
	p.sys = topology.New(opts...).Stage("count", op, stage...).Build()
	// The engine-wide hook runs before the stage's control loop: it
	// checks tuple conservation (every emitted tuple was processed by
	// exactly one counting task) and, traced, stamps harvest's end.
	p.sys.Engine.OnSnapshot = func(e *engine.Engine, _ int, snap *stats.Snapshot) *engine.Rebalance {
		if tr != nil {
			tr.snapAt.Store(tr.clk.now())
			tr.snapKeys.Store(int64(len(snap.Keys)))
		}
		var n int64
		for i := range snap.Keys {
			n += snap.Keys[i].Freq
		}
		if n != e.LastEmitted() {
			p.badIntervals++
		}
		return nil
	}
	if tr != nil {
		// Registered after Build, so it runs after the controller.
		p.sys.Engine.AddSnapshotHook(0, func(*engine.Engine, int, *stats.Snapshot) *engine.Rebalance {
			tr.ctlAt.Store(tr.clk.now())
			return nil
		})
	}
	return p
}

func (p *inproc) runInterval() error {
	bad := p.badIntervals
	p.sys.Engine.RunInterval()
	if p.badIntervals != bad {
		return fmt.Errorf("interval %d: harvested tuple count differs from emission", p.sys.Engine.Interval()-1)
	}
	return nil
}

func (p *inproc) series() []metrics.Interval { return p.sys.Recorder().Series }

func (p *inproc) tableSize() int {
	return p.sys.Stage(0).AssignmentRouter().Assignment().Table().Len()
}

// spans splits the interval that ran between t0 and t1 at the traced
// boundaries: spout span (feed + draw), close (last spout return → last
// FlushInterval), harvest (→ OnSnapshot entry), control round (→ the
// post-controller hook) and the engine's model/metrics tail.
func (p *inproc) spans(t0, t1 int64) spanRec {
	tr := p.tr
	fs, ls, lf := tr.firstSpout.Load(), tr.lastSpout.Load(), tr.lastFlush.Load()
	sa, ca := tr.snapAt.Load(), tr.ctlAt.Load()
	r := spanRec{
		wall:    t1 - t0,
		start:   fs - t0,
		draw:    tr.draw.Load(),
		close:   lf - ls,
		harvest: sa - lf,
		control: ca - sa,
		model:   t1 - ca,
		busy:    tr.busy.Load(),
		plan:    tr.plan.Load(),
		plans:   tr.plans.Load(),
		keys:    tr.snapKeys.Load(),
	}
	r.feed = ls - fs - r.draw
	return r
}

func (p *inproc) stop() error {
	p.sys.Stop()
	return nil
}
