// Command benchrunner regenerates the paper's tables and figures as
// text series.
//
// Usage:
//
//	benchrunner                # run everything, print each exhibit
//	benchrunner -exp fig08     # one exhibit
//	benchrunner -exp fig07a,fig12
//	benchrunner -list          # list exhibit ids
//	benchrunner -dataplane BENCH_dataplane.json
//	                           # measure the tuple hot path and write
//	                           # tuples/sec as JSON (skips exhibits)
//	benchrunner -dataplane BENCH_dataplane.json -feeders 4
//	                           # same, with 4-way spout fan-out on the
//	                           # engine measurements (scaling curve)
//	benchrunner -dataplane BENCH_dataplane.json -multistage
//	                           # additionally benchmark a 2-stage
//	                           # topology end to end, pipelined vs
//	                           # store-and-forward (-msbudget scales it)
//	benchrunner -dataplane BENCH_dataplane.json -keys 4096,16384,65536
//	                           # additionally sweep tracked-key
//	                           # populations through the interval-close
//	                           # + control-round path, full vs
//	                           # incremental harvest at a 1k working set
//	benchrunner -pipeline      # run the exhibits with streaming
//	                           # inter-stage transfer (A/B against the
//	                           # default store-and-forward run)
//
// The per-interval control-loop overhead micro-bench lives with its
// subject (internal/control BenchmarkControlRound /
// BenchmarkEngineInterval); `make bench-control` drives it.
//
// Output rows correspond to the x-axis points of the paper's plots;
// columns to its series; README.md documents how each exhibit maps to
// the published figures. The -dataplane report is the trajectory file
// future perf PRs compare against: when the target file already exists
// its numbers are printed alongside the fresh ones as old-vs-new.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/hashring"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/tuple"
	"repro/internal/workload"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "comma-separated exhibit ids, or 'all'")
		list       = flag.Bool("list", false, "list exhibit ids and exit")
		csvDir     = flag.String("csv", "", "also write each exhibit as CSV into this directory")
		dataplane  = flag.String("dataplane", "", "measure data-plane tuples/sec and write the JSON report to this path (skips exhibits)")
		feeders    = flag.Int("feeders", 1, "spout parallelism for the -dataplane engine measurements (the scaling-curve knob)")
		multistage = flag.Bool("multistage", false, "with -dataplane: also benchmark a 2-stage topology end to end, store-and-forward vs pipelined transfer")
		msBudget   = flag.Int64("msbudget", 20000, "per-interval spout budget for the -multistage and -cluster benchmarks (CI smoke uses a tiny value)")
		clusterB   = flag.Bool("cluster", false, "with -dataplane: also benchmark the distributed runtime — the multistage 2-stage shape hosted on two worker processes' stages over real sockets, one point per transport (tcp, unix)")
		thetas     = flag.String("theta", "", "with -dataplane: comma-separated Zipf skews for the hot-key sweep; each θ is measured split-off and split-on (e.g. 0.99,1.2,1.5)")
		keysF      = flag.String("keys", "", "with -dataplane: comma-separated tracked-key populations for the harvest sweep; each is measured through interval close + one control round over the wire, full vs incremental harvest, with a 1k working set (e.g. 4096,16384,65536)")
		pipeline   = flag.Bool("pipeline", false, "run the exhibits with streaming inter-stage transfer (outputs match the default store-and-forward run on key-partitioned stages; fig01's shuffle stages may interleave on multicore)")
	)
	flag.Parse()
	if *feeders < 1 {
		fmt.Fprintf(os.Stderr, "benchrunner: -feeders must be ≥ 1 (got %d)\n", *feeders)
		os.Exit(2)
	}
	if *msBudget < 1 {
		fmt.Fprintf(os.Stderr, "benchrunner: -msbudget must be ≥ 1 (got %d)\n", *msBudget)
		os.Exit(2)
	}
	var sweep []float64
	if *thetas != "" {
		for _, f := range strings.Split(*thetas, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil || v <= 0 {
				fmt.Fprintf(os.Stderr, "benchrunner: bad -theta value %q\n", f)
				os.Exit(2)
			}
			sweep = append(sweep, v)
		}
	}
	var keySweep []int
	if *keysF != "" {
		for _, f := range strings.Split(*keysF, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || v < 1 {
				fmt.Fprintf(os.Stderr, "benchrunner: bad -keys value %q\n", f)
				os.Exit(2)
			}
			keySweep = append(keySweep, v)
		}
	}
	experiments.SetPipeline(*pipeline)
	if *dataplane != "" {
		if err := writeDataplaneReport(*dataplane, *feeders, *multistage, *clusterB, *msBudget, sweep, keySweep); err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(1)
		}
		return
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(1)
		}
	}

	reg := experiments.Registry()
	if *list {
		for _, e := range reg {
			fmt.Println(e.ID)
		}
		return
	}

	want := map[string]bool{}
	all := *exp == "all" || *exp == ""
	for _, id := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(id)] = true
	}

	ran := 0
	for _, e := range reg {
		if !all && !want[e.ID] {
			continue
		}
		start := time.Now()
		res := e.Run()
		fmt.Println(res.Render())
		fmt.Printf("(%s regenerated in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		if *csvDir != "" {
			path := filepath.Join(*csvDir, e.ID+".csv")
			if err := os.WriteFile(path, []byte(res.CSV()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "benchrunner:", err)
				os.Exit(1)
			}
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no exhibit matched %q; use -list\n", *exp)
		os.Exit(1)
	}
}

// dataplaneReport is the schema of BENCH_dataplane.json: tuples/sec
// per hot-path measurement, so successive PRs can track the trajectory
// of the batched data plane. Feeders records the spout parallelism the
// engine measurements ran with, so scaling-curve points taken at
// different -feeders values are distinguishable; GoMaxProcs and NumCPU
// record where the numbers were taken — fan-out and pipeline-overlap
// measurements from a single-core host understate the parallel paths
// (the ROADMAP's "multicore scaling numbers" item).
type dataplaneReport struct {
	Schema       string             `json:"schema"`
	GoMaxProcs   int                `json:"gomaxprocs"`
	NumCPU       int                `json:"num_cpu,omitempty"`
	Feeders      int                `json:"feeders"`
	TuplesPerSec map[string]float64 `json:"tuples_per_sec"`
	// FeedLatencyUs records the engine_interval run's wall-clock
	// FeedBatch-call latency quantiles in µs (engine.Config.FeedLatency
	// histograms, worst interval), the steady-state companion to the
	// rebalance-latency comparison in `make bench-control`. Always
	// present (p50/p99 keys, zero when the run recorded no samples).
	FeedLatencyUs map[string]float64 `json:"feed_latency_us"`
	// Sweep holds the hot-key θ sweep (-theta): each Zipf skew measured
	// with hot-key splitting off and on, so the report records where
	// per-key replication starts to pay on this host.
	Sweep []sweepPoint `json:"hotkey_sweep,omitempty"`
	// Cluster holds the distributed-runtime sweep (-cluster): per
	// transport, the wire at each coalescing budget (off / 4KB / 32KB),
	// with wire-efficiency columns next to the throughput.
	// cluster_interval_{tcp,unix} in TuplesPerSec mirror the 32KB points
	// (the default configuration), keeping the scalar trajectory keys
	// comparable across schema versions.
	Cluster []clusterPoint `json:"cluster_sweep,omitempty"`
	// HarvestSweep holds the tracked-key population sweep (-keys): each
	// population measured through interval close plus one wire control
	// round with a 1k working set, full harvest vs incremental — the
	// O(keys)-vs-O(Δkeys) control-cost comparison.
	HarvestSweep []harvestPoint `json:"harvest_sweep,omitempty"`
}

// clusterPoint is one distributed-runtime measurement: the 2-stage
// forwarding topology on two workers over one transport, with the wire
// codec and coalescing budget pinned. BytesPerTuple is total codec
// payload sent across every connection (both directions of the control
// plane included) divided by spout tuples emitted — each spout tuple
// crosses two data hops, so this is the whole-cluster wire cost of one
// tuple, not one hop's. AllocsPerMsg divides the timed run's heap
// allocations (whole process: engines, spout and codecs together) by
// the wire messages sent; coalesced frames count as one message, which
// is exactly why the column moves with the budget.
type clusterPoint struct {
	Network       string  `json:"network"`
	Wire          string  `json:"wire"`     // always "binary"; committed rows also hold "gob"
	Coalesce      string  `json:"coalesce"` // "off" | "4KB" | "32KB"
	TuplesPerSec  float64 `json:"tuples_per_sec"`
	BytesPerTuple float64 `json:"bytes_per_tuple"`
	AllocsPerMsg  float64 `json:"allocs_per_msg"`
}

// harvestPoint is one (population, harvest mode) measurement: mean
// per-interval close time, mean hold-round time (close + report +
// decide + resume over the wire), and mean LoadReport bytes per
// round received on the controller side. Mode is "full" (every round
// re-sends the whole population) or "delta" (rounds ride changed +
// retired sets).
type harvestPoint struct {
	Keys            int     `json:"keys"`
	Mode            string  `json:"mode"`
	IntervalCloseUs float64 `json:"interval_close_us"`
	HoldRoundUs     float64 `json:"hold_round_us"`
	LoadReportBytes float64 `json:"loadreport_bytes"`
}

// holdPolicy never commands; harvest-sweep rounds measure pure
// report-path cost.
type holdPolicy struct{}

func (holdPolicy) Decide(control.Env, *stats.Snapshot) []control.Command { return nil }

// measureHarvest drives one (population, mode) point: a 4-instance
// stage tracks nkeys keys, then each measured round touches a 1k
// working set, closes the interval, and runs one held control round
// over the wire transport. With HarvestFull the close rebuilds the
// whole aggregate and the reports re-carry every key; with
// HarvestIncremental the close merges only the touched keys and the
// reports carry the delta. The operator is Discard, as in
// BenchmarkControlRound: the sweep isolates the harvest + report path,
// not operator state maintenance (which costs the same in both modes).
func measureHarvest(nkeys int, mode engine.HarvestMode) harvestPoint {
	const (
		nd      = 4
		working = 1024
		rounds  = 20
	)
	pt := harvestPoint{Keys: nkeys, Mode: "full"}
	if mode == engine.HarvestIncremental {
		pt.Mode = "delta"
	}
	st := engine.NewStage("harvest", nd, func(int) engine.Operator { return engine.Discard }, 1,
		engine.NewAssignmentRouter(topology.NewAssignment(nd)))
	cfg := engine.DefaultConfig()
	cfg.Harvest = mode
	e := engine.New(func() tuple.Tuple { return tuple.New(0, nil) }, cfg, st)
	defer e.Stop()
	loop := control.NewLoop(e, 0, []control.Policy{holdPolicy{}}, control.Wire())
	defer loop.Close()
	hook := loop.Hook()

	// Seed the full population, then run two warm-up rounds: the first
	// hook round always sends full reports (the mirror starts empty),
	// the second settles the delta path so measured rounds are
	// steady-state.
	buf := make([]tuple.Tuple, working)
	interval := int64(0)
	round := func(lo int) {
		for i := range buf {
			buf[i] = tuple.New(tuple.Key(lo+i), 1)
		}
		st.FeedBatch(buf)
		st.Barrier()
		interval++
		t0 := time.Now()
		snap := st.EndInterval(interval)
		closed := time.Since(t0)
		hook(e, 0, snap)
		hold := time.Since(t0)
		pt.IntervalCloseUs += float64(closed.Microseconds())
		pt.HoldRoundUs += float64(hold.Microseconds())
	}
	for lo := 0; lo < nkeys; lo += working {
		n := working
		if lo+n > nkeys {
			n = nkeys - lo
		}
		buf = buf[:n]
		for i := range buf {
			buf[i] = tuple.New(tuple.Key(lo+i), 1)
		}
		st.FeedBatch(buf)
		st.Barrier()
	}
	buf = buf[:working]
	interval++
	hook(e, 0, st.EndInterval(interval))
	round(0)
	pt.IntervalCloseUs, pt.HoldRoundUs = 0, 0
	_, rcvd0 := loop.WireBytes()
	for r := 0; r < rounds; r++ {
		round((r * working) % nkeys)
	}
	_, rcvd1 := loop.WireBytes()
	pt.IntervalCloseUs /= rounds
	pt.HoldRoundUs /= rounds
	pt.LoadReportBytes = float64(rcvd1-rcvd0) / rounds
	return pt
}

// sweepPoint is one (θ, split on/off) measurement of the hot-key
// sweep: end-to-end engine throughput plus the worst-interval feed
// latency quantiles, and the high-water mark of concurrently split
// keys (always 0 when Split is false).
type sweepPoint struct {
	Theta        float64 `json:"theta"`
	Split        bool    `json:"split"`
	TuplesPerSec float64 `json:"tuples_per_sec"`
	FeedP50Us    float64 `json:"feed_p50_us"`
	FeedP99Us    float64 `json:"feed_p99_us"`
	SplitKeysMax int     `json:"split_keys_max"`
}

// readDataplaneReport loads a previously written report, for the
// old-vs-new comparison. A missing file is not an error (no baseline
// yet); a malformed one is.
func readDataplaneReport(path string) (*dataplaneReport, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var r dataplaneReport
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	return &r, nil
}

// writeDataplaneReport benchmarks the tuple hot path end to end and
// writes the tuples/sec report. Measurements mirror the in-package
// micro-benchmarks (BenchmarkFeedBatch, BenchmarkRingLookupLUT,
// BenchmarkTrackerObserveBatch) plus whole-engine interval rates on
// the serial and fanned-out emission paths; with multistage set, a
// 2-stage topology is additionally driven end to end under both
// transfer modes (multistage_interval_sf = store-and-forward,
// multistage_interval = streaming pipeline); with clusterB set, the
// same 2-stage shape is driven through the distributed runtime — the
// stages hosted by two in-process workers, every hop a real socket —
// once per transport (cluster_interval_tcp, cluster_interval_unix).
// When the target file
// already holds a report, the old numbers are printed next to the new
// ones so perf PRs can quote the trajectory directly.
func writeDataplaneReport(path string, feeders int, multistage, clusterB bool, msBudget int64, sweep []float64, keySweep []int) error {
	// The Feed/FeedBatch micro-measurements drive one stage directly
	// (no spout, no intervals); the builder still declares it, and
	// stopping the stage stops every goroutine the topology owns.
	mk := func(nd int) *engine.Stage {
		return topology.New().
			Stage("bench", func(int) engine.Operator { return engine.Discard },
				topology.Instances(nd)).
			Build().Stage(0)
	}
	keys := make([]tuple.Tuple, 4096)
	for i := range keys {
		keys[i] = tuple.New(tuple.Key(uint64(i)*2654435761%4096), nil)
	}
	perTuple := func(r testing.BenchmarkResult) float64 {
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		return 1e9 / ns
	}
	baseline, err := readDataplaneReport(path)
	if err != nil {
		return err
	}
	report := dataplaneReport{
		Schema:        "dataplane-v7",
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		Feeders:       feeders,
		TuplesPerSec:  map[string]float64{},
		FeedLatencyUs: map[string]float64{"p50": 0, "p99": 0},
	}

	feed := testing.Benchmark(func(b *testing.B) {
		st := mk(10)
		defer st.Stop()
		for i := 0; i < b.N; i++ {
			st.Feed(keys[i%len(keys)])
		}
		b.StopTimer()
		st.Barrier()
	})
	report.TuplesPerSec["feed_per_tuple"] = perTuple(feed)

	const batch = 1024
	fb := testing.Benchmark(func(b *testing.B) {
		st := mk(10)
		defer st.Stop()
		for n := 0; n < b.N; n += batch {
			off := n % len(keys)
			if off+batch > len(keys) {
				off = 0
			}
			st.FeedBatch(keys[off : off+batch])
		}
		b.StopTimer()
		st.Barrier()
	})
	report.TuplesPerSec["feed_batch"] = perTuple(fb)

	// The same measurement through the pausing-migration oracle: the
	// builder default is the pause-free generation-stamped feed path,
	// so feed_batch vs feed_batch_pausing is the no-migration hot-path
	// price of each mode.
	fbo := testing.Benchmark(func(b *testing.B) {
		st := topology.New(topology.PausingMigration()).
			Stage("bench", func(int) engine.Operator { return engine.Discard },
				topology.Instances(10)).
			Build().Stage(0)
		defer st.Stop()
		for n := 0; n < b.N; n += batch {
			off := n % len(keys)
			if off+batch > len(keys) {
				off = 0
			}
			st.FeedBatch(keys[off : off+batch])
		}
		b.StopTimer()
		st.Barrier()
	})
	report.TuplesPerSec["feed_batch_pausing"] = perTuple(fbo)

	// The fanned-out feed: `feeders` goroutines each drive FeedBatch
	// with a private buffer, the emission shape of Cfg.Feeders = N.
	// Recorded only when actually fanned out, so the key always means
	// the same measurement across reports.
	if feeders > 1 {
		fbp := testing.Benchmark(func(b *testing.B) {
			st := mk(10)
			defer st.Stop()
			per := b.N / feeders
			var wg sync.WaitGroup
			for f := 0; f < feeders; f++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					// Feed straight from the shared tuple slice, as the
					// serial benchmark does: FeedBatch copies out of its
					// argument and concurrent readers are safe, so both
					// measurements cover exactly the same work.
					for n := 0; n < per; n += batch {
						off := n % len(keys)
						if off+batch > len(keys) {
							off = 0
						}
						st.FeedBatch(keys[off : off+batch])
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			st.Barrier()
		})
		report.TuplesPerSec["feed_batch_feeders"] = perTuple(fbp)
	}

	ring := hashring.New(10, 0)
	rl := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ring.Hash(tuple.Key(i))
		}
	})
	report.TuplesPerSec["ring_lookup"] = perTuple(rl)

	tr := stats.NewTracker(1)
	ob := testing.Benchmark(func(b *testing.B) {
		for n := 0; n < b.N; n += batch {
			off := n % len(keys)
			if off+batch > len(keys) {
				off = 0
			}
			tr.ObserveBatch(keys[off : off+batch])
		}
	})
	report.TuplesPerSec["tracker_observe_batch"] = perTuple(ob)

	engineRate := func(nFeeders int) (rate, p50, p99 float64) {
		var emittedTotal int64
		ei := testing.Benchmark(func(b *testing.B) {
			gen := workload.NewZipfStream(10000, 0.85, 0, 10000, 17)
			sys := core.NewSystemBatch(core.Config{Instances: 10, Algorithm: core.AlgMixed, Budget: 10000, MinKeys: 64, Feeders: nFeeders},
				gen.NextBatch, func(int) engine.Operator { return engine.StatefulCount })
			defer sys.Stop()
			// Time the feed calls too: the per-interval histograms cost
			// one clock read per FeedBatch and surface the p50/p99 the
			// rebalance-latency bench compares against.
			sys.Engine.Cfg.FeedLatency = true
			b.ResetTimer()
			sys.Run(b.N)
			b.StopTimer()
			// Count what was actually emitted: backpressure can throttle
			// intervals below Budget, and the trajectory metric must not
			// report tuples that never flowed. Quantiles reset per
			// benchmark invocation — only the final (longest) run's worst
			// interval is reported.
			emittedTotal, p50, p99 = 0, 0, 0
			for _, m := range sys.Recorder().Series {
				emittedTotal += m.Emitted
				if m.FeedP99Us > p99 {
					p50, p99 = m.FeedP50Us, m.FeedP99Us
				}
			}
		})
		return float64(emittedTotal) / ei.T.Seconds(), p50, p99
	}
	rate, p50, p99 := engineRate(1)
	report.TuplesPerSec["engine_interval"] = rate
	report.FeedLatencyUs["p50"], report.FeedLatencyUs["p99"] = p50, p99
	if feeders > 1 {
		rate, _, _ = engineRate(feeders)
		report.TuplesPerSec["engine_interval_feeders"] = rate
	}

	// The hot-key θ sweep: one single-stage topology per (θ, split)
	// point under extreme Zipf skew, identical seeds, so the split-on
	// vs split-off delta isolates the per-key replication machinery.
	// The detector splits at most 4 keys once one key's interval cost
	// reaches the per-task capacity.
	for _, theta := range sweep {
		for _, split := range []bool{false, true} {
			pt := sweepPoint{Theta: theta, Split: split}
			var emittedTotal int64
			r := testing.Benchmark(func(b *testing.B) {
				gen := workload.NewZipfStream(10000, theta, 0, 10000, 17)
				sOpts := []topology.StageOption{
					topology.Instances(10),
					topology.WithAlgorithm(topology.AlgMixed),
					topology.MinKeys(64),
				}
				if split {
					sOpts = append(sOpts, topology.HotKeySplit(4, 1.0))
				}
				sys := topology.New(
					topology.SpoutBatch(gen.NextBatch),
					topology.Budget(10000),
				).Stage("hot", func(int) engine.Operator { return engine.StatefulCount }, sOpts...).Build()
				defer sys.Stop()
				sys.Engine.Cfg.FeedLatency = true
				b.ResetTimer()
				sys.Run(b.N)
				b.StopTimer()
				emittedTotal, pt.FeedP50Us, pt.FeedP99Us = 0, 0, 0
				for _, m := range sys.Recorder().Series {
					emittedTotal += m.Emitted
					if m.FeedP99Us > pt.FeedP99Us {
						pt.FeedP50Us, pt.FeedP99Us = m.FeedP50Us, m.FeedP99Us
					}
				}
				if sp := sys.Splitter(0); sp != nil {
					pt.SplitKeysMax = sp.MaxActive
				}
			})
			pt.TuplesPerSec = float64(emittedTotal) / r.T.Seconds()
			report.Sweep = append(report.Sweep, pt)
		}
	}

	// The harvest sweep: each tracked-key population measured through
	// the interval-close + control-round path under full and incremental
	// harvest, identical 1k working sets. The full/delta ratio at large
	// populations is the O(keys) → O(Δkeys) control-cost claim.
	for _, nkeys := range keySweep {
		for _, mode := range []engine.HarvestMode{engine.HarvestFull, engine.HarvestIncremental} {
			report.HarvestSweep = append(report.HarvestSweep, measureHarvest(nkeys, mode))
		}
	}

	// The 2-stage topology end to end: a keyed forwarding map feeding a
	// keyed sink, the minimal shape where inter-stage transfer cost is
	// on the critical path. Spout tuples/sec is reported (each spout
	// tuple crosses both stages), with the store-and-forward driver and
	// the streaming pipeline measured over identical seeds so the delta
	// isolates the transfer machinery.
	if multistage {
		msRate := func(pipelined bool) float64 {
			const nd = 8
			fwd := engine.OperatorFunc(func(ctx *engine.TaskCtx, t tuple.Tuple) {
				ctx.Emit(tuple.New(t.Key, nil))
			})
			var emittedTotal int64
			r := testing.Benchmark(func(b *testing.B) {
				gen := workload.NewZipfStream(10000, 0.85, 0, msBudget, 17)
				mode := topology.StoreAndForward()
				if pipelined {
					mode = topology.Pipelined()
				}
				sys := topology.New(
					topology.SpoutBatch(gen.NextBatch),
					topology.Budget(msBudget),
					topology.MaxPending(0), // saturate: measure transfer, not the throttle
					mode,
				).Stage("ms-map", func(int) engine.Operator { return fwd },
					topology.Instances(nd),
				).Stage("ms-sink", func(int) engine.Operator { return engine.Discard },
					topology.Instances(nd),
				).Build()
				defer sys.Stop()
				b.ResetTimer()
				sys.Run(b.N)
				b.StopTimer()
				emittedTotal = 0
				for _, m := range sys.Recorder().Series {
					emittedTotal += m.Emitted
				}
			})
			return float64(emittedTotal) / r.T.Seconds()
		}
		report.TuplesPerSec["multistage_interval_sf"] = msRate(false)
		report.TuplesPerSec["multistage_interval"] = msRate(true)
	}

	// The distributed runtime on the same 2-stage shape: both stages
	// hosted by cluster workers (in-process here, but every hop — spout
	// feed, inter-stage transfer, control drive — crosses a real
	// socket). Spout tuples/sec again, so the points read directly
	// against multistage_interval: the delta is serialization plus the
	// kernel's socket path. Each transport is swept across coalescing
	// budgets — off, 4KB and the 32KB default — so the report separates
	// what batching the syscalls buys. The 32KB point also lands in
	// TuplesPerSec under the v6 scalar keys, keeping the old-vs-new
	// trajectory readable across the schema change. Every point is
	// labelled wire "binary", so old-vs-new matching never pairs it
	// with a committed gob row.
	if clusterB {
		registerBenchOps()
		wireCfgs := []struct {
			coalesce int
			label    string
		}{
			{-1, "off"},
			{4 << 10, "4KB"},
			{32 << 10, "32KB"},
		}
		for _, network := range []string{"tcp", "unix"} {
			for _, cf := range wireCfgs {
				pt, err := clusterRate(network, msBudget, cf.coalesce)
				if err != nil {
					return fmt.Errorf("cluster bench (%s, coalesce=%s): %w", network, cf.label, err)
				}
				pt.Network, pt.Wire, pt.Coalesce = network, "binary", cf.label
				report.Cluster = append(report.Cluster, pt)
				if cf.label == "32KB" {
					report.TuplesPerSec["cluster_interval_"+network] = pt.TuplesPerSec
				}
			}
		}
	}

	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("data-plane report written to %s (feeders=%d, gomaxprocs=%d, numcpu=%d)\n",
		path, feeders, report.GoMaxProcs, report.NumCPU)
	// The fan-out and pipeline-overlap measurements only show their
	// speedups with real parallelism: scaling-curve and multistage
	// numbers recorded on a single-core host are not a usable baseline
	// (ROADMAP "multicore scaling numbers").
	if (feeders > 1 || multistage) && (report.NumCPU == 1 || report.GoMaxProcs == 1) {
		fmt.Fprintf(os.Stderr, "warning: recording feeders/pipeline numbers on a single-core host "+
			"(gomaxprocs=%d, numcpu=%d); parallel paths cannot show their speedup here — "+
			"record the scaling curve on a multicore machine\n", report.GoMaxProcs, report.NumCPU)
	}
	// Deltas are a trajectory only when the configurations match: a
	// baseline taken at another feeder count or GOMAXPROCS measured
	// different work.
	comparable := baseline != nil && baseline.Feeders == report.Feeders &&
		baseline.GoMaxProcs == report.GoMaxProcs
	if baseline != nil && !comparable {
		fmt.Printf("  (baseline was feeders=%d gomaxprocs=%d — configs differ, no old-vs-new deltas)\n",
			baseline.Feeders, baseline.GoMaxProcs)
	}
	names := make([]string, 0, len(report.TuplesPerSec))
	for k := range report.TuplesPerSec {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v := report.TuplesPerSec[k]
		if comparable {
			if old, ok := baseline.TuplesPerSec[k]; ok && old > 0 {
				fmt.Printf("  %-24s %14.0f tuples/sec  (was %14.0f, %+.1f%%)\n", k, v, old, 100*(v-old)/old)
				continue
			}
		}
		fmt.Printf("  %-24s %14.0f tuples/sec\n", k, v)
	}
	fmt.Printf("  %-24s p50 %.1f µs, p99 %.1f µs (worst interval, engine_interval run)\n",
		"feed_latency", report.FeedLatencyUs["p50"], report.FeedLatencyUs["p99"])
	for _, pt := range report.Sweep {
		mode := "off"
		if pt.Split {
			mode = "on "
		}
		line := fmt.Sprintf("  hotkey θ=%-5.2f split=%s %11.0f tuples/sec  feed p50 %.1f µs p99 %.1f µs",
			pt.Theta, mode, pt.TuplesPerSec, pt.FeedP50Us, pt.FeedP99Us)
		if pt.Split {
			line += fmt.Sprintf("  (max %d keys split)", pt.SplitKeysMax)
		}
		if comparable {
			for _, old := range baseline.Sweep {
				if old.Theta == pt.Theta && old.Split == pt.Split && old.TuplesPerSec > 0 {
					line += fmt.Sprintf("  (was %.0f, %+.1f%%)",
						old.TuplesPerSec, 100*(pt.TuplesPerSec-old.TuplesPerSec)/old.TuplesPerSec)
					break
				}
			}
		}
		fmt.Println(line)
	}
	for _, pt := range report.HarvestSweep {
		line := fmt.Sprintf("  harvest keys=%-6d %-5s close %8.1f µs  hold round %8.1f µs  report %8.0f B",
			pt.Keys, pt.Mode, pt.IntervalCloseUs, pt.HoldRoundUs, pt.LoadReportBytes)
		if pt.Mode == "delta" {
			for _, full := range report.HarvestSweep {
				if full.Keys == pt.Keys && full.Mode == "full" && pt.HoldRoundUs > 0 && pt.LoadReportBytes > 0 {
					line += fmt.Sprintf("  (vs full: %.1fx round, %.1fx bytes)",
						full.HoldRoundUs/pt.HoldRoundUs, full.LoadReportBytes/pt.LoadReportBytes)
					break
				}
			}
		}
		if comparable {
			for _, old := range baseline.HarvestSweep {
				if old.Keys == pt.Keys && old.Mode == pt.Mode && old.HoldRoundUs > 0 {
					line += fmt.Sprintf("  (was %.1f µs, %+.1f%%)",
						old.HoldRoundUs, 100*(pt.HoldRoundUs-old.HoldRoundUs)/old.HoldRoundUs)
					break
				}
			}
		}
		fmt.Println(line)
	}
	for _, pt := range report.Cluster {
		line := fmt.Sprintf("  cluster %-4s wire=%-6s coalesce=%-4s %11.0f tuples/sec  %5.1f B/tuple  %6.1f allocs/msg",
			pt.Network, pt.Wire, pt.Coalesce, pt.TuplesPerSec, pt.BytesPerTuple, pt.AllocsPerMsg)
		if comparable {
			for _, old := range baseline.Cluster {
				if old.Network == pt.Network && old.Wire == pt.Wire &&
					old.Coalesce == pt.Coalesce && old.TuplesPerSec > 0 {
					line += fmt.Sprintf("  (was %.0f, %+.1f%%)",
						old.TuplesPerSec, 100*(pt.TuplesPerSec-old.TuplesPerSec)/old.TuplesPerSec)
					break
				}
			}
		}
		fmt.Println(line)
	}
	return nil
}

// benchOpsOnce guards the cluster-bench operator registrations: the
// registry panics on duplicates, and clusterRate runs once per
// transport.
var benchOpsOnce sync.Once

// registerBenchOps registers the -cluster benchmark's operators — the
// same forwarding map and sink the -multistage benchmark builds
// directly, named so worker-hosted stages can resolve them.
func registerBenchOps() {
	benchOpsOnce.Do(func() {
		cluster.RegisterOp("bench/fwd", func(int) engine.Operator {
			return engine.OperatorFunc(func(ctx *engine.TaskCtx, t tuple.Tuple) {
				ctx.Emit(tuple.New(t.Key, nil))
			})
		})
		cluster.RegisterOp("bench/sink", func(int) engine.Operator { return engine.Discard })
	})
}

// clusterRate measures end-to-end spout tuples/sec of the 2-stage
// forwarding topology hosted on two cluster workers over one
// transport, with the frame-coalescing budget fixed for the run. The
// workers run in-process (goroutines, not exec) so the measurement
// isolates the wire cost — serialization plus the socket round trips
// of the interval drive — without process spawn noise; the bytes still
// cross real kernel sockets.
//
// Wire-efficiency columns come from the shutdown Stats: bytes and
// messages are whole-session totals (two warm-up intervals and the
// handshake included — a few percent against a timed run hundreds of
// intervals long), while the allocation count covers exactly the timed
// region, so allocs/msg slightly understates steady state rather than
// crediting warm-up.
func clusterRate(network string, msBudget int64, coalesce int) (clusterPoint, error) {
	const nWorkers = 2
	var pt clusterPoint
	var emittedTotal, sentBytes, sentMsgs int64
	var benchErr error
	r := testing.Benchmark(func(b *testing.B) {
		if benchErr != nil {
			return
		}
		b.ReportAllocs()
		gen := workload.NewZipfStream(10000, 0.85, 0, msBudget, 17)
		spec := &cluster.Spec{
			Name:     "bench-cluster",
			Budget:   msBudget,
			SpoutB:   gen.NextBatch,
			Coalesce: coalesce,
			Stages: []cluster.StageSpec{
				{Name: "ms-map", Op: "bench/fwd", Instances: 8},
				{Name: "ms-sink", Op: "bench/sink", Instances: 8},
			},
		}
		addr := "127.0.0.1:0"
		var dir string
		if network == "unix" {
			var err error
			if dir, err = os.MkdirTemp("", "repro-bench-cluster"); err != nil {
				benchErr = err
				return
			}
			defer os.RemoveAll(dir)
			addr = filepath.Join(dir, "coord.sock")
		}
		c, err := cluster.NewCoordinator(spec, network, addr)
		if err != nil {
			benchErr = err
			return
		}
		errs := make(chan error, nWorkers)
		for i := 0; i < nWorkers; i++ {
			dataAddr := "127.0.0.1:0"
			if network == "unix" {
				dataAddr = filepath.Join(dir, fmt.Sprintf("w%d.sock", i))
			}
			w, err := cluster.NewWorker(network, c.Addr(), dataAddr, fmt.Sprintf("w%d", i))
			if err != nil {
				benchErr = err
				return
			}
			go func() { errs <- w.Run() }()
		}
		if err := c.Deploy(nWorkers); err != nil {
			benchErr = err
			return
		}
		// Two untimed warm-up intervals: the first interval pays one-off
		// costs (gob frames for placement and handshakes, TCP window
		// growth) that would dominate a b.N=1 probe.
		if err := c.Run(2); err != nil {
			benchErr = err
			return
		}
		b.ResetTimer()
		err = c.Run(b.N)
		b.StopTimer()
		if err != nil {
			benchErr = err
			return
		}
		emittedTotal = 0
		for _, m := range c.Recorder().Series {
			emittedTotal += m.Emitted
		}
		stats, err := c.Shutdown()
		if err != nil {
			benchErr = err
		}
		// Sum the sent side of every connection in the cluster: each
		// payload byte is sent exactly once, so this is the total wire
		// traffic without double-counting the receive mirrors.
		sentBytes, sentMsgs = 0, 0
		for _, s := range stats {
			for _, cs := range s.Conns {
				sentBytes += cs.Sent
				sentMsgs += cs.SentMsgs
			}
		}
		for i := 0; i < nWorkers; i++ {
			if err := <-errs; err != nil && benchErr == nil {
				benchErr = err
			}
		}
	})
	if benchErr != nil {
		return clusterPoint{}, benchErr
	}
	pt.TuplesPerSec = float64(emittedTotal) / r.T.Seconds()
	if emittedTotal > 0 {
		pt.BytesPerTuple = float64(sentBytes) / float64(emittedTotal)
	}
	if sentMsgs > 0 {
		pt.AllocsPerMsg = float64(r.MemAllocs) / float64(sentMsgs)
	}
	return pt, nil
}
