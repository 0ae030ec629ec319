package main

import "testing"

// TestTracedSpans runs traced systems for the oracle window and checks
// that (1) tracing changes no observable — the series matches the
// oracle's, interval for interval — and (2) every interval's layer
// boundaries fired in the expected order, so each phase span is
// non-negative and the spans tile the RunInterval wall time: layer self
// times add up to the end-to-end time.
func TestTracedSpans(t *testing.T) {
	for _, cl := range []bool{false, true} {
		w := small(cl)
		in := drawInput(w, 5)
		want, _ := oracleSeries(w, in)
		tr := newTracer()
		sys, err := build(w, in, tr)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < checked; i++ {
			tr.reset()
			t0 := tr.clk.now()
			if err := sys.runInterval(); err != nil {
				t.Fatalf("cluster=%v interval %d: %v", cl, i, err)
			}
			r := sys.spans(t0, tr.clk.now())
			for name, v := range map[string]int64{"start": r.start, "draw": r.draw, "feed": r.feed,
				"close": r.close, "harvest": r.harvest, "control": r.control, "plan": r.plan, "model": r.model} {
				if v < 0 {
					t.Errorf("cluster=%v interval %d: %s span %d ns < 0", cl, i, name, v)
				}
			}
			if d := tiled(r, cl) - r.wall; d < -r.wall/1000 || d > r.wall/1000 {
				t.Errorf("cluster=%v interval %d: spans sum to %d ns, wall %d ns", cl, i, tiled(r, cl), r.wall)
			}
		}
		if bad := mismatches(sys.series(), want); bad != 0 {
			t.Errorf("cluster=%v: %d traced intervals differ from the oracle", cl, bad)
		}
		if err := sys.stop(); err != nil {
			t.Fatal(err)
		}
	}
}

// tiled is the sum of a record's disjoint phase spans; the cluster's
// plan span is not nested in another one.
func tiled(r spanRec, cluster bool) int64 {
	s := r.start + r.draw + r.feed + r.close + r.harvest + r.control + r.model
	if cluster {
		s += r.plan
	}
	return s
}
