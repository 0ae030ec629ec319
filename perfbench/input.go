package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"

	"repro/internal/topology"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// cycle is how many distinct intervals of input a run pre-draws; the
// replay spout serves them in order and wraps around.
const cycle = 64

// subInputs is how many independent inputs an untraced run draws from
// its seed and measures in turn. The hash placement of the hot keys is
// fixed per input and moves the results by more than run-to-run noise
// does; pooling several placements measures the workload rather than one
// draw of it.
const subInputs = 4

// subSeed derives sub-input j's generator seed from the run's seed;
// distinct (seed, j) pairs give distinct sub-seeds.
func subSeed(seed int64, j int) int64 { return seed*subInputs + int64(j) }

// input is one workload's pre-drawn key stream: cycle intervals of
// budget keys each, replayed in order. It is drawn before anything is
// timed, so the generator's cost never counts as system time.
type input struct {
	budget int64
	keys   []tuple.Key // cycle × budget
}

// drawInput draws a workload's keys with internal/workload. Fluctuation
// is advanced against the fixed hash assignment of nd instances, not
// the system's live assignment, so the input depends only on the seed
// and the workload parameters — never on the code under test.
func drawInput(w *workloadDef, seed int64) *input {
	gen := workload.NewZipfStream(w.keys, w.zipf, w.fluct, w.budget, seed)
	asg := topology.NewAssignment(w.instances)
	in := &input{budget: w.budget, keys: make([]tuple.Key, 0, cycle*int(w.budget))}
	for i := 0; i < cycle; i++ {
		if i > 0 {
			gen.Advance(asg)
		}
		for j := int64(0); j < w.budget; j++ {
			in.keys = append(in.keys, gen.Next().Key)
		}
	}
	return in
}

// digest is a SHA-256 over the key stream, recorded with each result so
// two runs can show they measured the same input.
func (in *input) digest() string {
	h := sha256.New()
	var b [8]byte
	for _, k := range in.keys {
		binary.LittleEndian.PutUint64(b[:], uint64(k))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// replay is one system's spout over a shared input: Next is the
// engine.SpoutBatch, Advance the per-interval workload callback that
// moves the cursor to the next interval of the cycle.
type replay struct {
	in       *input
	pos, end int64
	seq      uint64
}

func newReplay(in *input) *replay { return &replay{in: in, end: in.budget} }

// Next fills dst with unit-cost tuples from the current interval's keys.
// The engine asks for at most the interval budget, so the cursor never
// crosses into the next interval's keys.
func (r *replay) Next(dst []tuple.Tuple) int {
	n := int64(len(dst))
	if n > r.end-r.pos {
		n = r.end - r.pos
	}
	keys := r.in.keys[r.pos : r.pos+n]
	for i, k := range keys {
		r.seq++
		dst[i] = tuple.Tuple{Key: k, Cost: 1, StateSize: 1, Seq: r.seq}
	}
	r.pos += n
	return int(n)
}

// Advance positions the cursor at interval's slice of the cycle.
func (r *replay) Advance(interval int64) {
	r.pos = (interval % cycle) * r.in.budget
	r.end = r.pos + r.in.budget
}
