package main

import (
	"testing"

	"repro/internal/tuple"
)

// TestInputDigest shows the input is a function of the seed alone: the
// same seed draws an identical stream, another seed a different one.
func TestInputDigest(t *testing.T) {
	for _, w := range workloads {
		a, b, c := drawInput(w, 7).digest(), drawInput(w, 7).digest(), drawInput(w, 8).digest()
		if a != b {
			t.Errorf("%s: seed 7 drew two different inputs (%s, %s)", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 drew the same input %s", w.name, a)
		}
	}
}

// TestReplayCycle checks the replay spout serves each interval's own
// keys and wraps around after a full cycle.
func TestReplayCycle(t *testing.T) {
	in := drawInput(small(false), 3)
	r := newReplay(in)
	for _, iv := range []int64{0, 1, cycle - 1, cycle, cycle + 1} {
		r.Advance(iv)
		got := make([]tuple.Tuple, in.budget)
		if n := r.Next(got[:in.budget/2]) + r.Next(got[in.budget/2:]); n != len(got) {
			t.Fatalf("interval %d: drew %d tuples, want %d", iv, n, len(got))
		}
		off := (iv % cycle) * in.budget
		for j, tp := range got {
			if tp.Key != in.keys[off+int64(j)] {
				t.Fatalf("interval %d tuple %d: key %d, want %d", iv, j, tp.Key, in.keys[off+int64(j)])
			}
		}
	}
}

// small is a scaled-down workload for tests: the same shape as the
// benchmark's, a fraction of the work per interval.
func small(cluster bool) *workloadDef {
	return &workloadDef{name: "small", keys: 2000, zipf: 0.85, fluct: 1, budget: 4000, instances: 4, cluster: cluster}
}
