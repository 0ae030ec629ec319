package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/control"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/tuple"
)

// clusterWorkers is the fleet size of the cluster workload: stage si
// lands on worker si mod 2, so the forward→count edge crosses a socket.
const clusterWorkers = 2

// opSeq numbers the traced count operators registered with the cluster
// registry: each traced cluster binds its own tracer under a fresh name.
var opSeq atomic.Int64

func init() {
	cluster.RegisterOp("perfbench/fwd", func(int) engine.Operator {
		return engine.OperatorFunc(func(ctx *engine.TaskCtx, t tuple.Tuple) {
			ctx.Emit(tuple.New(t.Key, nil))
		})
	})
	cluster.RegisterOp("perfbench/count", func(int) engine.Operator { return engine.StatefulCount })
}

// clusterSpec declares the cluster workload: a keyed forward map feeding
// StatefulCount, the count stage under the Mixed controller. extra
// policies run after the controller.
func clusterSpec(w *workloadDef, rep *replay, countOp string, extra ...control.Policy) *cluster.Spec {
	return &cluster.Spec{
		Name:    w.name,
		Budget:  w.budget,
		SpoutB:  rep.Next,
		Advance: rep.Advance,
		Stages: []cluster.StageSpec{
			{Name: "fwd", Op: "perfbench/fwd", Instances: w.instances},
			{Name: "count", Op: countOp, Instances: w.instances, Algorithm: topology.AlgMixed,
				MinKeys: minKeys, Target: true, Policies: extra},
		},
	}
}

// clusterSys is a coordinator plus in-process workers (goroutines)
// talking over unix sockets under .bench_build/ in the working
// directory.
type clusterSys struct {
	coord   *cluster.Coordinator
	errs    chan error
	started int // worker goroutines running
	dir     string
	tr      *tracer
	round   chan struct{}
	emitted int64
	stopped bool
	stats   []*protocol.Stats
}

// deployCluster starts the coordinator and its workers and deploys the
// workload. Traced, the count operator and a timing policy are wrapped
// and the spout is timed.
func deployCluster(w *workloadDef, in *input, tr *tracer) (*clusterSys, error) {
	rep := newReplay(in)
	countName := "perfbench/count"
	var extra []control.Policy
	c := &clusterSys{tr: tr, errs: make(chan error, clusterWorkers)}
	if tr != nil {
		countName = fmt.Sprintf("perfbench/count-traced-%d", opSeq.Add(1))
		cluster.RegisterOp(countName, func(int) engine.Operator {
			return tracedOp{inner: engine.StatefulCount.(countOp), tr: tr}
		})
		extra = append(extra, timingPolicy{tr: tr})
		c.round = make(chan struct{}, 1)
	}
	spec := clusterSpec(w, rep, countName, extra...)
	if tr != nil {
		spec.SpoutB = tr.spout(spec.SpoutB)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "sock")
	if err != nil {
		return nil, err
	}
	c.dir = dir
	coord, err := cluster.NewCoordinator(spec, "unix", filepath.Join(dir, "c"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	c.coord = coord
	if tr != nil {
		coord.OnRound(1, func(control.Env, *stats.Snapshot) {
			tr.roundAt.Store(tr.clk.now())
			select {
			case c.round <- struct{}{}:
			default:
			}
		})
	}
	for i := 0; i < clusterWorkers; i++ {
		wk, err := cluster.NewWorker("unix", coord.Addr(), filepath.Join(dir, fmt.Sprintf("w%d", i)), fmt.Sprintf("w%d", i))
		if err != nil {
			c.abort()
			return nil, err
		}
		c.started++
		go func() { c.errs <- wk.Run() }()
	}
	if err := coord.Deploy(clusterWorkers); err != nil {
		c.abort()
		return nil, err
	}
	return c, nil
}

func (c *clusterSys) runInterval() error {
	if err := c.coord.RunInterval(); err != nil {
		return err
	}
	if c.round != nil {
		// The round observer fires on the control server's goroutine just
		// after it releases the worker; wait for it so this interval's
		// stamps are complete before they are read.
		select {
		case <-c.round:
		case <-time.After(10 * time.Second):
			return errors.New("control round observer did not fire")
		}
	}
	s := c.coord.Recorder().Series
	c.emitted += s[len(s)-1].Emitted
	for si := 0; si < 2; si++ {
		if got := c.coord.Processed(si); got != c.emitted {
			return fmt.Errorf("interval %d: stage %d processed %d tuples, spout emitted %d", len(s)-1, si, got, c.emitted)
		}
	}
	return nil
}

func (c *clusterSys) series() []metrics.Interval { return c.coord.Recorder().Series }

func (c *clusterSys) tableSize() int {
	s := c.coord.Recorder().Series
	return s[len(s)-1].TableSize
}

// spans splits a traced cluster interval: start (StartInterval round),
// spout span (emit + draw), close and harvest up to the timing policy's
// Decide (net of the plan, which the controller ran inside it), the
// rest of the control round, and the drive's tail after OnRound.
func (c *clusterSys) spans(t0, t1 int64) spanRec {
	tr := c.tr
	fs, ls := tr.firstSpout.Load(), tr.lastSpout.Load()
	da, ra := tr.decideAt.Load(), tr.roundAt.Load()
	s := c.coord.Recorder().Series
	plan := int64(s[len(s)-1].PlanMs * 1e6)
	r := spanRec{
		wall:    t1 - t0,
		start:   fs - t0,
		draw:    tr.draw.Load(),
		plan:    plan,
		control: ra - da,
		model:   t1 - ra,
		busy:    tr.busy.Load(),
	}
	if s[len(s)-1].Rebalanced {
		r.plans = 1
	}
	r.feed = ls - fs - r.draw
	r.harvest = da - ls - plan
	return r
}

// abort tears down a partly deployed cluster, waiting a bounded time
// for the workers already started.
func (c *clusterSys) abort() {
	if c.coord != nil {
		c.coord.Shutdown()
	}
	for ; c.started > 0; c.started-- {
		select {
		case <-c.errs:
		case <-time.After(10 * time.Second):
		}
	}
	os.RemoveAll(c.dir)
}

// stop shuts the cluster down, keeps the connection statistics and
// waits for every worker goroutine to exit.
func (c *clusterSys) stop() error {
	if c.stopped {
		return nil
	}
	c.stopped = true
	st, err := c.coord.Shutdown()
	c.stats = st
	for ; c.started > 0; c.started-- {
		if werr := <-c.errs; werr != nil && err == nil {
			err = werr
		}
	}
	os.RemoveAll(c.dir)
	return err
}

// wire sums the sent side of every connection: each payload byte and
// frame is sent exactly once, so this is the total wire traffic.
func (c *clusterSys) wire() (bytes, frames int64) {
	for _, s := range c.stats {
		for _, cs := range s.Conns {
			bytes += cs.Sent
			frames += cs.SentMsgs
		}
	}
	return bytes, frames
}
