package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/metrics"
)

// untraced measures the end-to-end metrics over subInputs inputs drawn
// from the seed, one after another: for each, the set-up time of several
// builds, then a timed closed-loop phase of seconds/subInputs on the
// last build. Samples pool across the inputs. Each timed phase
// interleaves reference-kernel samples with its work and its timings are
// scaled by them (hostref.go): closed-loop figures per input cycle,
// plan times per input and set-up times over the whole run.
func untraced(w *workloadDef, seed int64, seconds float64) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var setups, cycleP50, blocks, peaks, plans, rawPlans, skews []float64
	var loopRates, loopP50 []float64 // host-scaled, per input cycle
	setupRef := &hostRef{}
	loopRef := &hostRef{every: refEveryLoop}
	planRef := &hostRef{every: refEveryPlan}
	var timed, kept int
	var emitted int64
	for j := 0; j < subInputs; j++ {
		in, want, planned := prepare(w, seed, j)
		// The live heap before any build holds what the harness keeps:
		// the input, the oracle's series and its planning snapshots,
		// whose number varies from seed to seed. peak_heap_mb is net of it.
		runtime.GC()
		heapBase, _, _ := readRuntime()
		var sys system
		for i, n := 0, setupReps(w)/subInputs; i < n; i++ {
			setupRef.sample()
			runtime.GC()
			t0 := time.Now()
			s, err := build(w, in, nil)
			d := time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("build: %w", err)
			}
			setups = append(setups, d.Seconds())
			if i == n-1 {
				sys = s
			} else if err := s.stop(); err != nil {
				return nil, fmt.Errorf("stop: %w", err)
			}
		}
		ph := measure(sys, want, seconds/subInputs, nil, loopRef)
		res.Attempted += ph.attempted
		res.Failed += ph.failed
		if ph.err != nil {
			res.Correct = false
			return res, ph.err
		}
		skew, _, _, err := quality(sys.series())
		if err != nil {
			res.Correct = false
			return res, err
		}
		if len(planned) == 0 {
			res.Correct = false
			return res, errors.New("the oracle's controller never planned")
		}
		skews = append(skews, skew)
		from := len(planRef.ns)
		ts := retimePlans(planned, planRef)
		slow := planRef.slowdownFrom(from)
		for _, t := range ts {
			plans = append(plans, t/slow)
		}
		rawPlans = append(rawPlans, ts...)
		cycleP50 = append(cycleP50, ph.cycleP50...)
		blocks = append(blocks, ph.blocks...)
		for i, s := range ph.cycleSlow {
			loopRates = append(loopRates, ph.blocks[i]*s)
			loopP50 = append(loopP50, ph.cycleP50[i]/s)
		}
		peaks = append(peaks, float64(ph.peakHeap-heapBase))
		timed += ph.timed
		emitted += ph.emitted
		kept += len(planned)
	}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	put("tuples_per_s", "tuples/s", quantile(loopRates, 0.50))
	put("interval_ms_p50", "ms", quantile(loopP50, 0.50))
	put("plan_ms_p50", "ms", quantile(plans, 0.50))
	put("skewness_mean", "ratio", mean(skews))
	put("setup_s", "s", quantile(setups, 0.50)/setupRef.slowdown())
	put("peak_heap_mb", "MB", mean(peaks)/1e6)
	fmt.Printf("# host slowdown (reference kernel median / %.0f µs): closed loop %.4f over %d samples, plans %.4f over %d, set-up %.4f over %d\n",
		refNominalNs/1e3, loopRef.slowdown(), len(loopRef.ns), planRef.slowdown(), len(planRef.ns), setupRef.slowdown(), len(setupRef.ns))
	fmt.Printf("# unscaled: tuples_per_s %.6g, interval_ms_p50 %.6g, plan_ms_p50 %.6g, setup_s %.6g (medians, as above)\n",
		quantile(blocks, 0.50), quantile(cycleP50, 0.50), quantile(rawPlans, 0.50), quantile(setups, 0.50))
	fmt.Printf("# samples: %d timed intervals in %d input cycles of %d (tuples_per_s, interval_ms_p50), "+
		"%d plan timings over %d planning snapshots (plan_ms_p50), %d set-ups (setup_s), %d checked intervals (skewness_mean); "+
		"%.0f tuples emitted per interval\n",
		timed, len(blocks), cycle, len(plans), kept, len(setups), subInputs*checked, float64(emitted)/float64(timed))
	return res, nil
}

// prepare draws sub-input j of a seed, prints its provenance line and
// runs the oracle on it.
func prepare(w *workloadDef, seed int64, j int) (*input, []metrics.Interval, []planInput) {
	sub := subSeed(seed, j)
	in := drawInput(w, sub)
	fmt.Printf("# input %d: seed %d -> sub-seed %d, digest %s\n", j, seed, sub, in.digest())
	want, planned := oracleSeries(w, in)
	return in, want, planned
}

// traced measures the per-layer metrics on the seed's first sub-input.
// The run is split in three equal phases on fresh systems: untraced,
// traced, and untraced at GOMAXPROCS=1 (the single-threaded baseline).
// The first two give the tracing overhead; each phase passes the same
// correctness gate.
func traced(w *workloadDef, seed int64, seconds float64) (*result, error) {
	in, want, _ := prepare(w, seed, 0)
	third := seconds / 3
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var phases []*phase
	var tracedSys system
	tr := newTracer()
	baseRef := &hostRef{every: refEveryLoop}
	for i := 0; i < 3; i++ {
		var t *tracer
		var ref *hostRef
		switch i {
		case 0:
			ref = baseRef
		case 1:
			t = tr
		}
		procs := runtime.GOMAXPROCS(0)
		if i == 2 {
			runtime.GOMAXPROCS(1)
		}
		sys, err := build(w, in, t)
		if err != nil {
			return nil, fmt.Errorf("build: %w", err)
		}
		ph := measure(sys, want, third, t, ref)
		runtime.GOMAXPROCS(procs)
		res.Attempted += ph.attempted
		res.Failed += ph.failed
		if ph.err != nil {
			res.Correct = false
			return res, ph.err
		}
		if i == 1 {
			tracedSys = sys
		}
		phases = append(phases, ph)
	}
	base, ph, single := phases[0], phases[1], phases[2]
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	n := float64(len(ph.spans))
	us := func(f func(r spanRec) int64) float64 {
		var s int64
		for _, r := range ph.spans {
			s += f(r)
		}
		return float64(s) / n / 1e3
	}
	perInterval := func(f func(r spanRec) int64) float64 { return us(f) * 1e3 }
	wallUs := us(func(r spanRec) int64 { return r.wall })
	busy := us(func(r spanRec) int64 { return r.busy })
	plan := us(func(r spanRec) int64 { return r.plan })
	plans := perInterval(func(r spanRec) int64 { return r.plans })

	put("workload.draw_us", "us", us(func(r spanRec) int64 { return r.draw }))
	put("ops.busy_us", "us", busy)
	put("ops.busy_frac", "frac", busy/(float64(w.instances)*wallUs))
	put("balance.plan_us", "us", plan)
	put("balance.plans", "1/interval", plans)
	put("control.rebalances", "1/interval", rebalancedShare(tracedSys.series()[warmup:]))
	_, mig, table, err := quality(want)
	if err != nil {
		res.Correct = false
		return res, err
	}
	put("balance.migration_pct_mean", "%", mig)
	put("route.table_size_mean", "entries", table)
	put("route.table_size_max", "entries", float64(ph.tableMax))
	put("runtime.alloc_bytes_per_tuple", "B/tuple", float64(ph.allocBytes)/float64(ph.emitted))
	put("runtime.gc_pause_us", "us", float64(ph.gcPauseNs)/n/1e3)
	put("runtime.gc_cycles", "1/interval", float64(ph.gcCycles)/n)
	put("runtime.gomaxprocs1_tuples_per_s", "tuples/s", single.tuplesPerS())
	put("interval_ms_p95", "ms", quantile(base.ms, 0.95))
	put("host.ref_us", "us", quantile(baseRef.ns, 0.5)/1e3)
	put("trace.tuples_per_s", "tuples/s", ph.tuplesPerS())
	put("trace.overhead_frac", "frac", 1-ph.tuplesPerS()/base.tuplesPerS())

	// Layers off a workload's path report 0: the in-process engine's
	// phases on the cluster, the cluster drive and the wire in process.
	zero := func(unit string, names ...string) {
		for _, n := range names {
			put(n, unit, 0)
		}
	}
	if w.cluster {
		zero("us", "engine.start_us", "engine.feed_us", "engine.close_us", "stats.harvest_us",
			"control.round_us", "control.apply_us", "engine.model_us")
		zero("keys", "stats.snapshot_keys")
		cs := tracedSys.(*clusterSys)
		bytes, frames := cs.wire()
		var emitted int64
		for _, m := range cs.series() {
			emitted += m.Emitted
		}
		put("cluster.start_us", "us", us(func(r spanRec) int64 { return r.start }))
		put("cluster.emit_us", "us", us(func(r spanRec) int64 { return r.feed }))
		put("cluster.close_harvest_us", "us", us(func(r spanRec) int64 { return r.harvest }))
		put("cluster.control_us", "us", us(func(r spanRec) int64 { return r.control }))
		put("cluster.drive_tail_us", "us", us(func(r spanRec) int64 { return r.model }))
		put("protocol.bytes_per_tuple", "B/tuple", float64(bytes)/float64(emitted))
		put("protocol.frames_per_interval", "frames/interval", float64(frames)/float64(len(cs.series())))
	} else {
		zero("us", "cluster.start_us", "cluster.emit_us", "cluster.close_harvest_us", "cluster.control_us",
			"cluster.drive_tail_us")
		zero("B/tuple", "protocol.bytes_per_tuple")
		zero("frames/interval", "protocol.frames_per_interval")
		round := us(func(r spanRec) int64 { return r.control })
		put("engine.start_us", "us", us(func(r spanRec) int64 { return r.start }))
		put("engine.feed_us", "us", us(func(r spanRec) int64 { return r.feed }))
		put("engine.close_us", "us", us(func(r spanRec) int64 { return r.close }))
		put("stats.harvest_us", "us", us(func(r spanRec) int64 { return r.harvest }))
		put("stats.snapshot_keys", "keys", perInterval(func(r spanRec) int64 { return r.keys }))
		put("control.round_us", "us", round)
		put("control.apply_us", "us", round-plan)
		put("engine.model_us", "us", us(func(r spanRec) int64 { return r.model }))
	}
	fmt.Printf("# samples: %d traced intervals (span means), untraced %.0f tuples/s over %d intervals\n",
		len(ph.spans), base.tuplesPerS(), base.timed)
	return res, nil
}

// rebalancedShare is the fraction of intervals that applied a plan.
func rebalancedShare(s []metrics.Interval) float64 {
	n := 0
	for _, m := range s {
		if m.Rebalanced {
			n++
		}
	}
	return float64(n) / float64(len(s))
}
