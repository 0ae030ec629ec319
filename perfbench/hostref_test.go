package main

import "testing"

// TestDriveSamplesHostPerCycle checks that a closed-loop phase driven
// with a hostRef records one positive host slowdown for every timed
// input cycle, so every cycle's figures can be scaled by their own.
func TestDriveSamplesHostPerCycle(t *testing.T) {
	w := small(false)
	in := drawInput(w, 3)
	want, _ := oracleSeries(w, in)
	sys, err := build(w, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	ph := measure(sys, want, 0, nil, &hostRef{every: refEveryLoop})
	if ph.err != nil {
		t.Fatal(ph.err)
	}
	if len(ph.blocks) == 0 || len(ph.cycleSlow) != len(ph.blocks) {
		t.Fatalf("%d host slowdowns for %d timed cycles", len(ph.cycleSlow), len(ph.blocks))
	}
	for i, s := range ph.cycleSlow {
		if !(s > 0) {
			t.Errorf("cycle %d: host slowdown %v", i, s)
		}
	}
}
