package control_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/balance"
	"repro/internal/control"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// holdPolicy never commands: rounds measure pure loop overhead
// (report marshaling, transport crossing, merge, decide, resume).
type holdPolicy struct{}

func (holdPolicy) Decide(control.Env, *stats.Snapshot) []control.Command { return nil }

func benchSnapshot(keys, nd int) *stats.Snapshot {
	snap := &stats.Snapshot{Interval: 1, ND: nd}
	for i := 0; i < keys; i++ {
		snap.Keys = append(snap.Keys, stats.KeyStat{
			Key: tuple.Key(i), Cost: int64(keys - i), Freq: 1, Mem: 2,
			Dest: i % nd, Hash: i % nd,
		})
	}
	stats.SortByCostDesc(snap.Keys)
	return snap
}

// BenchmarkEngineInterval quantifies what the control plane adds to a
// whole engine interval (10k tuples through a Mixed-managed stage):
// "direct" drives the legacy in-process hook, "loop" and "wire" the
// unified command path over each transport. The direct-vs-loop delta
// is the honest price of speaking the protocol every interval.
func BenchmarkEngineInterval(b *testing.B) {
	run := func(b *testing.B, wiring string) {
		gen := workload.NewZipfStream(10000, 0.85, 0, 10000, 17)
		st := engine.NewStage("op", 10, func(int) engine.Operator { return engine.StatefulCount }, 1,
			engine.NewAssignmentRouter(topology.NewAssignment(10)))
		cfg := engine.DefaultConfig()
		e := engine.NewBatch(gen.NextBatch, cfg, st)
		defer e.Stop()
		ctl := mkController()
		switch wiring {
		case "direct":
			e.AddSnapshotHook(0, ctl.StageHook(0))
		case "loop":
			loop := control.NewLoop(e, 0, []control.Policy{ctl})
			defer loop.Close()
			e.AddSnapshotHook(0, loop.Hook())
		case "wire":
			loop := control.NewLoop(e, 0, []control.Policy{ctl}, control.Wire())
			defer loop.Close()
			e.AddSnapshotHook(0, loop.Hook())
		}
		b.ResetTimer()
		e.Run(b.N)
	}
	for _, wiring := range []string{"direct", "loop", "wire"} {
		b.Run(wiring, func(b *testing.B) { run(b, wiring) })
	}
}

// BenchmarkControlRound measures one hold round of the per-stage
// control loop — the steady per-interval cost the unified control
// plane adds — across transports and snapshot sizes. Compare against
// an interval's data-plane work (tens of thousands of tuples) to see
// the loop is off the critical path.
func BenchmarkControlRound(b *testing.B) {
	for _, wire := range []bool{false, true} {
		for _, keys := range []int{0, 512, 4096} {
			name := fmt.Sprintf("loopback/keys=%d", keys)
			var opts []control.LoopOption
			if wire {
				name = fmt.Sprintf("wire/keys=%d", keys)
				opts = append(opts, control.Wire())
			}
			b.Run(name, func(b *testing.B) {
				st := engine.NewStage("bench", 10, func(int) engine.Operator { return engine.Discard }, 1,
					engine.NewAssignmentRouter(topology.NewAssignment(10)))
				e := engine.New(func() tuple.Tuple { return tuple.New(0, nil) }, engine.DefaultConfig(), st)
				defer e.Stop()
				loop := control.NewLoop(e, 0, []control.Policy{holdPolicy{}}, opts...)
				defer loop.Close()
				hook := loop.Hook()
				snap := benchSnapshot(keys, 10)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					hook(e, 0, snap)
				}
			})
		}
	}
}

// BenchmarkWireCodec measures the codec's per-message cost for report
// traffic at several population sizes: each Send encodes into retained
// scratch and hits the transport with one framed Write, so
// steady-state allocations per message stay flat as reports grow. Run
// with -benchmem; B/msg is the encoded payload size.
func BenchmarkWireCodec(b *testing.B) {
	for _, keys := range []int{0, 64, 1024} {
		b.Run(fmt.Sprintf("report/keys=%d", keys), func(b *testing.B) {
			var buf bytes.Buffer
			c := protocol.NewCodec(&buf)
			rep := &protocol.LoadReport{TaskID: 1, Interval: 7, Tasks: 4, Capacity: 1 << 20}
			for i := 0; i < keys; i++ {
				rep.Stats = append(rep.Stats, protocol.KeyStatWire{
					Key: tuple.Key(i), Cost: int64(keys - i), Freq: 1, Mem: 2, Hash: i % 4,
				})
			}
			m := &protocol.Message{Report: rep}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Send(m); err != nil {
					b.Fatal(err)
				}
				if _, err := c.Recv(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(c.SentBytes())/float64(b.N), "B/msg")
		})
	}
}

// BenchmarkRebalanceLatency is the tentpole's headline measurement:
// the distribution of FeedBatch call latency — p50 and p99, reported
// as p50-µs / p99-µs — with and without a controller goroutine
// applying rebalance plans continuously, on the pausing oracle versus
// the pause-free generation protocol. On the pausing path every plan
// pauses feeds and drains in-flight sends, so the rebalance case
// shows a p99 cliff over its steady case; pause-free feeders never
// block on a plan and p99 stays flat. Run via `make bench-control`.
func BenchmarkRebalanceLatency(b *testing.B) {
	const (
		nd        = 4
		keyDomain = 512
		chunk     = 256
	)
	for _, mode := range []string{"pausing", "pausefree"} {
		for _, load := range []string{"steady", "rebalance"} {
			b.Run(mode+"/"+load, func(b *testing.B) {
				st := engine.NewStage("bench", nd, func(int) engine.Operator { return engine.StatefulCount }, 1,
					engine.NewAssignmentRouter(topology.NewAssignment(nd)))
				defer st.Stop()
				if mode == "pausefree" {
					if err := st.SetPauseFree(true); err != nil {
						b.Fatal(err)
					}
				}
				pre := make([]tuple.Tuple, keyDomain)
				for i := range pre {
					pre[i] = tuple.New(tuple.Key(i), nil)
				}
				st.FeedBatch(pre)
				st.Barrier()

				stop := make(chan struct{})
				var wg sync.WaitGroup
				if load == "rebalance" {
					// Controller goroutine: rotate a fifth of the key
					// domain one instance over, continuously, via the
					// live-migration entry point (on the pausing oracle
					// that is pause → drain → migrate → resume; on a
					// pause-free stage it is the generation protocol).
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; ; i++ {
							select {
							case <-stop:
								return
							default:
							}
							asg := st.AssignmentRouter().Assignment()
							tab := asg.Table().Clone()
							plan := &balance.Plan{Table: tab, MoveDest: map[tuple.Key]int{}}
							for k := tuple.Key(i % 5); k < keyDomain; k += 5 {
								dst := (asg.Dest(k) + 1) % nd
								tab.Put(k, dst)
								plan.Moved = append(plan.Moved, k)
								plan.MoveDest[k] = dst
							}
							if _, err := st.ApplyPlanLive(plan); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}

				buf := make([]tuple.Tuple, chunk)
				var seq int
				var hist metrics.LatencyHist
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for j := range buf {
						buf[j] = tuple.New(tuple.Key(seq%keyDomain), nil)
						seq++
					}
					t0 := time.Now()
					st.FeedBatch(buf)
					hist.Observe(time.Since(t0))
					// Drain periodically (outside the histogram) so the
					// measurement is feed-path stall, not steady-state
					// queue saturation — which would bury both modes
					// under the same backlog delay.
					if i%8 == 7 {
						st.Barrier()
					}
				}
				b.StopTimer()
				close(stop)
				wg.Wait()
				st.Barrier()
				b.ReportMetric(hist.QuantileUs(0.5), "p50-µs")
				b.ReportMetric(hist.QuantileUs(0.99), "p99-µs")
			})
		}
	}
}
