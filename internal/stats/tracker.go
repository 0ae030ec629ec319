package stats

import (
	"fmt"
	"sort"

	"repro/internal/tuple"
)

// RetainMode selects what a Tracker's interval close reports (see
// SetRetain). The default, RetainOff, reports only the keys touched
// during the finished interval — the original per-interval harvest.
// The retained modes additionally carry every previously reported key
// forward with its last-reported statistics, so the close describes
// the task's whole tracked population; they differ only in how the
// retained aggregate is rebuilt, and are pinned bit-identical to each
// other (RetainScan is the equivalence oracle for RetainMerge).
type RetainMode int

const (
	// RetainOff is the legacy per-interval harvest: EndInterval reports
	// exactly the keys observed since the previous close.
	RetainOff RetainMode = iota
	// RetainScan retains the population in a map and rebuilds the full
	// sorted run from scratch at every close — O(population·log) per
	// interval, the oracle the merge path is pinned against.
	RetainScan
	// RetainMerge retains the population as a persistent sorted
	// aggregate and folds only the interval's dirty keys in with one
	// linear merge — O(population) copy plus O(dirty·log dirty) sort,
	// no full re-sort, and the run handed out is a copy-on-write view
	// of the aggregate itself.
	RetainMerge
)

// Tracker accumulates per-key measurements inside the current interval
// and maintains a ring of the last w intervals so S(k, w) can be
// reported. One Tracker serves one operator; the engine's tasks feed it
// and the controller snapshots it at interval boundaries (step 1 of the
// Fig. 5 workflow).
//
// Tracker is not internally synchronized: in the engine each task owns
// a private Tracker and the controller merges them, mirroring the
// paper's per-instance load-reporting module.
type Tracker struct {
	window int
	// cur accumulates the in-progress interval in an open-addressed
	// table of value cells: one probe-and-update per observation (a Go
	// map would cost a hashed access plus a hashed assign), no per-key
	// cell allocation. Cells persist across intervals, stamped with the
	// epoch of their last touch; a close consumes only the dirty list
	// below and "resets" the table by bumping the epoch — O(1) instead
	// of a capacity-wide clear.
	cur cellTab
	// epoch identifies the in-progress interval (starts at 1 so the
	// zero value of a fresh cell never matches). A cell whose epoch
	// differs is stale: its accumulators belong to an already-harvested
	// interval and are reset on the next touch.
	epoch uint64
	// dirty chains each key touched this interval, once, at first-touch
	// time — the close harvests exactly this list instead of scanning
	// the table's capacity, so interval-close cost is O(touched keys).
	dirty []tuple.Key
	// dirtyDropped counts current-epoch cells deleted by DropKey this
	// interval. While zero (the overwhelmingly common case) the dirty
	// list holds no duplicates and harvest needs no dedup map; a drop
	// followed by a re-touch chains the key a second time.
	dirtyDropped int
	// hist[j] holds a finished interval's per-key state sizes; the ring
	// covers the last `window` finished intervals.
	hist []map[tuple.Key]int64
	// next is the ring index the next finished interval lands in.
	next int
	// finished counts completed intervals (for Interval stamping).
	finished int64

	// Retained-population state (SetRetain). retired records keys
	// dropped since the last close so the aggregate and any downstream
	// delta consumer retire them coherently.
	retain  RetainMode
	retired []tuple.Key
	// aggMap is RetainScan's population (key → last-reported stat).
	aggMap map[tuple.Key]KeyStat
	// agg / aggSpare double-buffer RetainMerge's sorted aggregate: each
	// close merges into the spare and swaps, so the run returned by the
	// previous close stays valid until the close after next.
	agg      []KeyStat
	aggSpare []KeyStat
	// drop is the merge's reusable Δkey membership set (changed ∪
	// retired), probed once per retained aggregate entry.
	drop KeySet
}

// cell is one key's interval accumulator. epoch stamps the interval of
// the last touch: a live cell with a stale epoch carries values already
// harvested and is logically absent from the current interval.
type cell struct {
	key   tuple.Key
	live  bool
	epoch uint64
	cost  int64
	freq  int64
	mem   int64
}

// cellTab is a power-of-two open-addressed table with linear probing
// and backward-shift deletion. It exists because the tracker update is
// on the engine's per-tuple path: upsert is a splitmix hash, a masked
// index and (almost always) one cache line touched.
type cellTab struct {
	cells  []cell
	mask   uint64
	n      int
	growAt int
}

const cellTabMinSize = 64

func (t *cellTab) init(size int) {
	t.cells = make([]cell, size)
	t.mask = uint64(size - 1)
	t.n = 0
	t.growAt = size * 3 / 4
}

// upsert returns the live cell for k, inserting a zero cell if absent.
// The pointer is valid until the next upsert (which may grow the
// table).
func (t *cellTab) upsert(k tuple.Key) *cell {
	if t.cells == nil {
		t.init(cellTabMinSize)
	} else if t.n >= t.growAt {
		t.grow()
	}
	i := cellHash(k) & t.mask
	for {
		c := &t.cells[i]
		if !c.live {
			c.key = k
			c.live = true
			t.n++
			return c
		}
		if c.key == k {
			return c
		}
		i = (i + 1) & t.mask
	}
}

// lookup returns k's live cell, or nil.
func (t *cellTab) lookup(k tuple.Key) *cell {
	if t.n == 0 {
		return nil
	}
	i := cellHash(k) & t.mask
	for {
		c := &t.cells[i]
		if !c.live {
			return nil
		}
		if c.key == k {
			return c
		}
		i = (i + 1) & t.mask
	}
}

func (t *cellTab) grow() {
	old := t.cells
	t.init(len(old) * 2)
	for i := range old {
		if old[i].live {
			c := t.upsert(old[i].key)
			*c = old[i]
		}
	}
}

// reset clears every cell, keeping capacity.
func (t *cellTab) reset() {
	for i := range t.cells {
		t.cells[i] = cell{}
	}
	t.n = 0
}

// del removes k's cell, if present, restoring the probe invariant by
// backward-shifting any displaced successors into the hole.
func (t *cellTab) del(k tuple.Key) {
	if t.n == 0 {
		return
	}
	i := cellHash(k) & t.mask
	for t.cells[i].key != k || !t.cells[i].live {
		if !t.cells[i].live {
			return
		}
		i = (i + 1) & t.mask
	}
	t.n--
	j := i
	for {
		j = (j + 1) & t.mask
		if !t.cells[j].live {
			break
		}
		h := cellHash(t.cells[j].key) & t.mask
		if (j-h)&t.mask >= (j-i)&t.mask {
			t.cells[i] = t.cells[j]
			i = j
		}
	}
	t.cells[i] = cell{}
}

// each calls fn for every live cell, current-epoch or stale.
func (t *cellTab) each(fn func(*cell)) {
	for i := range t.cells {
		if t.cells[i].live {
			fn(&t.cells[i])
		}
	}
}

// cellHash is splitmix64, matching the ring's key mixing: fast and
// well-distributed for the small-integer keys synthetic workloads use.
func cellHash(k tuple.Key) uint64 {
	x := uint64(k) + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewTracker returns a tracker keeping a state window of w intervals.
// w < 1 is clamped to 1 (the paper's minimum, instantaneous state).
func NewTracker(w int) *Tracker {
	if w < 1 {
		w = 1
	}
	return &Tracker{
		window: w,
		epoch:  1,
		hist:   make([]map[tuple.Key]int64, w),
	}
}

// Window returns w.
func (t *Tracker) Window() int { return t.window }

// SetRetain selects the tracker's harvest mode. Must be called on a
// fresh tracker (before the first observation or close): the retained
// aggregate is built forward from the dirty sets, so switching modes
// mid-stream would start it from a hole.
func (t *Tracker) SetRetain(m RetainMode) error {
	if m == t.retain {
		return nil
	}
	if t.finished != 0 || len(t.dirty) != 0 {
		return fmt.Errorf("stats: SetRetain on a tracker with history (finished=%d, dirty=%d)", t.finished, len(t.dirty))
	}
	t.retain = m
	if m == RetainScan && t.aggMap == nil {
		t.aggMap = make(map[tuple.Key]KeyStat)
	}
	return nil
}

// Retain returns the tracker's harvest mode.
func (t *Tracker) Retain() RetainMode { return t.retain }

// Epoch returns the identifier the *next* close will carry (the
// in-progress interval's epoch plus the closes already taken).
func (t *Tracker) Epoch() uint64 { return t.epoch }

// touch returns k's current-interval cell, resetting a stale one and
// chaining the key into the dirty list on its first touch of the
// interval.
func (t *Tracker) touch(k tuple.Key) *cell {
	c := t.cur.upsert(k)
	if c.epoch != t.epoch {
		c.epoch = t.epoch
		c.cost, c.freq, c.mem = 0, 0, 0
		t.dirty = append(t.dirty, k)
	}
	return c
}

// Observe charges one tuple's cost and state to its key in the current
// interval.
func (t *Tracker) Observe(tp tuple.Tuple) {
	t.ObserveKey(tp.Key, tp.Cost, tp.StateSize)
}

// ObserveKey charges cost and state directly, letting workload drivers
// skip tuple construction in tight loops.
func (t *Tracker) ObserveKey(k tuple.Key, cost, state int64) {
	c := t.touch(k)
	c.cost += cost
	c.freq++
	c.mem += state
}

// ObserveBatch folds a whole batch of tuples into the current interval
// with one call, the entry point the engine's task loop uses so tracker
// accounting is amortized across every tuple of a channel message. It
// returns the batch's total cost, already read during the single pass,
// so callers charging processed-cost accounting need no second pass.
func (t *Tracker) ObserveBatch(ts []tuple.Tuple) int64 {
	tab := &t.cur
	if tab.cells == nil {
		tab.init(cellTabMinSize)
	}
	cells, mask := tab.cells, tab.mask
	epoch := t.epoch
	var total int64
	for i := range ts {
		// Grow on demand, sized by live keys — not by batch length,
		// which over-allocates badly when a huge batch cycles few keys.
		if tab.n >= tab.growAt {
			tab.grow()
			cells, mask = tab.cells, tab.mask
		}
		k := ts[i].Key
		j := cellHash(k) & mask
		for {
			c := &cells[j]
			if c.live {
				if c.key == k {
					if c.epoch == epoch {
						c.cost += ts[i].Cost
						c.freq++
						c.mem += ts[i].StateSize
					} else {
						// Stale cell from an already-harvested interval:
						// first touch of this interval resets and chains.
						c.epoch = epoch
						c.cost = ts[i].Cost
						c.freq = 1
						c.mem = ts[i].StateSize
						t.dirty = append(t.dirty, k)
					}
					break
				}
				j = (j + 1) & mask
				continue
			}
			c.key = k
			c.live = true
			tab.n++
			c.epoch = epoch
			c.cost = ts[i].Cost
			c.freq = 1
			c.mem = ts[i].StateSize
			t.dirty = append(t.dirty, k)
			break
		}
		total += ts[i].Cost
	}
	return total
}

// AbsorbKey folds an already-aggregated (cost, freq, mem) contribution
// into k's current-interval cell. The hot-key fold-back path uses it
// to charge a split key's replica work to the key's home task before
// harvest: the adds are plain integer sums, so absorbing replica
// deltas in any order yields the same cell an unsplit run would have
// accumulated tuple by tuple.
func (t *Tracker) AbsorbKey(k tuple.Key, cost, freq, mem int64) {
	if cost == 0 && freq == 0 && mem == 0 {
		return
	}
	c := t.touch(k)
	c.cost += cost
	c.freq += freq
	c.mem += mem
}

// DropKey forgets all history for k. The state store calls this when a
// key's state migrates away so the source task stops reporting it; in
// a retained mode the key is also queued for retirement so the next
// close removes it from the aggregate (and the delta report tells the
// controller's mirror to do the same).
func (t *Tracker) DropKey(k tuple.Key) {
	if c := t.cur.lookup(k); c != nil {
		if c.epoch == t.epoch {
			t.dirtyDropped++
		}
		t.cur.del(k)
	}
	if t.retain != RetainOff {
		t.retired = append(t.retired, k)
	}
	for _, h := range t.hist {
		delete(h, k)
	}
}

// AdoptKey seeds windowed memory for a key that just migrated in, so
// S(k,w) remains continuous across migration. The memory is recorded in
// the most recently finished interval slot (or the current one if none
// has finished yet). In a retained mode the key is additionally
// touched, so the adopting task's very next close reports it (zero
// cost, migrated windowed memory) instead of leaving a population gap
// until its next tuple — the retiring side's DropKey and this touch
// keep the aggregates coherent across a migration.
func (t *Tracker) AdoptKey(k tuple.Key, mem int64) {
	if t.finished == 0 {
		t.touch(k).mem += mem
		return
	}
	last := (t.next - 1 + t.window) % t.window
	if t.hist[last] == nil {
		t.hist[last] = make(map[tuple.Key]int64)
	}
	t.hist[last][k] += mem
	if t.retain != RetainOff {
		t.touch(k)
	}
}

// harvestDirty calls fn once per key touched this interval, in chain
// order, skipping keys whose cell was dropped after the touch. The
// dedup map is only built when a DropKey actually created a possible
// duplicate this interval.
func (t *Tracker) harvestDirty(fn func(k tuple.Key, c *cell)) {
	if t.dirtyDropped == 0 {
		for _, k := range t.dirty {
			if c := t.cur.lookup(k); c != nil && c.epoch == t.epoch {
				fn(k, c)
			}
		}
		return
	}
	seen := make(map[tuple.Key]struct{}, len(t.dirty))
	for _, k := range t.dirty {
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		if c := t.cur.lookup(k); c != nil && c.epoch == t.epoch {
			fn(k, c)
		}
	}
}

// rollWindow rolls the just-finished interval's state sizes into the
// ring, evicting the slot from w intervals ago (the paper's model:
// state from T_{i-w} is erased after T_i completes).
func (t *Tracker) rollWindow() {
	slot := make(map[tuple.Key]int64, len(t.dirty))
	t.harvestDirty(func(k tuple.Key, c *cell) {
		slot[k] = c.mem
	})
	t.hist[t.next] = slot
	t.next = (t.next + 1) % t.window
	t.finished++
}

// closeInterval advances the epoch and clears the per-interval
// bookkeeping; the stale cells stay in place until their next touch.
func (t *Tracker) closeInterval() {
	t.epoch++
	t.dirty = t.dirty[:0]
	t.dirtyDropped = 0
	t.retired = t.retired[:0]
}

// EndInterval closes the current interval, rolls the state window and
// returns the per-key statistics of the finished interval: cost c(k),
// frequency g(k) and the windowed memory S(k, w) including the interval
// just finished. Only the interval's dirty keys are visited — the
// close costs O(touched keys), not O(table capacity).
func (t *Tracker) EndInterval() map[tuple.Key]KeyStat {
	t.rollWindow()
	out := make(map[tuple.Key]KeyStat, len(t.dirty))
	t.harvestDirty(func(k tuple.Key, c *cell) {
		out[k] = KeyStat{Key: k, Cost: c.cost, Freq: c.freq, Mem: t.WindowedMem(k)}
	})
	t.closeInterval()
	return out
}

// Delta is one retained close's change set against the previous close:
// the keys touched (or adopted) during the finished interval with
// their fresh statistics, the keys retired since, and the epoch
// identifying the close. A consumer holding the previous close's run
// reconstructs the new one exactly by removing Retired ∪ keys(Changed)
// and merging Changed in under the canonical KeyStatLess order — the
// controller-side protocol.Mirror does precisely that.
type Delta struct {
	Epoch   uint64
	Changed []KeyStat   // sorted by KeyStatLess
	Retired []tuple.Key // ascending, deduplicated, re-added keys pruned
}

// EndIntervalRetained closes the current interval in a retained mode:
// the window rolls exactly as EndInterval's does, and the returned run
// lists the task's whole tracked population — keys untouched this
// interval carry their last-reported statistics forward — sorted by
// KeyStatLess. stamp (optional) resolves Dest/Hash on each changed
// entry before it enters the aggregate; carried entries keep the stamp
// of their last change (see Restamp for the resize-time refresh).
//
// Under RetainMerge the run is a copy-on-write view of the persistent
// aggregate: treat it as read-only; it stays valid until the close
// after next. Under RetainScan (the oracle) the run is rebuilt from
// scratch. Both modes return byte-identical runs and deltas for
// identical histories.
func (t *Tracker) EndIntervalRetained(stamp func(*KeyStat)) ([]KeyStat, Delta) {
	if t.retain == RetainOff {
		panic("stats: EndIntervalRetained requires SetRetain")
	}
	t.rollWindow()
	changed := make([]KeyStat, 0, len(t.dirty))
	t.harvestDirty(func(k tuple.Key, c *cell) {
		ks := KeyStat{Key: k, Cost: c.cost, Freq: c.freq, Mem: t.WindowedMem(k)}
		if stamp != nil {
			stamp(&ks)
		}
		changed = append(changed, ks)
	})
	SortByCostDesc(changed)
	retired := t.pruneRetired()
	t.closeInterval()
	d := Delta{Epoch: t.epoch, Changed: changed, Retired: retired}

	if t.retain == RetainScan {
		for _, k := range retired {
			delete(t.aggMap, k)
		}
		for _, ks := range changed {
			t.aggMap[ks.Key] = ks
		}
		run := make([]KeyStat, 0, len(t.aggMap))
		for _, ks := range t.aggMap {
			run = append(run, ks)
		}
		SortByCostDesc(run)
		return run, d
	}
	return t.mergeAggregate(changed, retired), d
}

// pruneRetired deduplicates the interval's retirement queue, drops
// keys that came back (their live cell means the changed set carries a
// fresh entry) and returns the survivors in ascending order.
func (t *Tracker) pruneRetired() []tuple.Key {
	if len(t.retired) == 0 {
		return nil
	}
	seen := make(map[tuple.Key]struct{}, len(t.retired))
	out := make([]tuple.Key, 0, len(t.retired))
	for _, k := range t.retired {
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		if t.cur.lookup(k) != nil {
			continue
		}
		out = append(out, k)
	}
	if len(out) == 0 {
		return nil
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// mergeAggregate folds one close's changed/retired sets into the
// persistent sorted aggregate with a single linear merge into the
// spare buffer, then swaps buffers. Keys are unique within a task and
// every entry carries the same Dest, so KeyStatLess is a strict total
// order and the merge reproduces exactly what a full re-sort would.
func (t *Tracker) mergeAggregate(changed []KeyStat, retired []tuple.Key) []KeyStat {
	if len(changed) == 0 && len(retired) == 0 {
		return t.agg
	}
	// The skip scan probes once per retained aggregate entry, so the
	// Δkey set must stay cache-resident: a compact reusable KeySet over
	// changed ∪ retired, not a scratch map rebuilt every close.
	t.drop.Reset(len(changed) + len(retired))
	for i := range changed {
		t.drop.Add(changed[i].Key)
	}
	for _, k := range retired {
		t.drop.Add(k)
	}
	out := t.aggSpare[:0]
	i := 0
	for _, ks := range t.agg {
		if t.drop.Has(ks.Key) {
			continue
		}
		for i < len(changed) && KeyStatLess(changed[i], ks) {
			out = append(out, changed[i])
			i++
		}
		out = append(out, ks)
	}
	out = append(out, changed[i:]...)
	t.aggSpare = t.agg
	t.agg = out
	return out
}

// Restamp re-resolves each retained aggregate entry's stamp (Dest and
// hash destination) in place. The stage calls it after a ring resize:
// carried entries keep the stamp of their last change, and a
// grown/shrunk ring moves hash destinations of keys that never
// migrate. Order is preserved — the stamp never changes Cost, Key or
// Dest-within-a-task, the components KeyStatLess orders by.
func (t *Tracker) Restamp(stamp func(*KeyStat)) {
	if stamp == nil {
		return
	}
	switch t.retain {
	case RetainScan:
		for k, ks := range t.aggMap {
			stamp(&ks)
			t.aggMap[k] = ks
		}
	case RetainMerge:
		for i := range t.agg {
			stamp(&t.agg[i])
		}
	}
}

// TopK returns the n hottest keys of the interval in progress without
// closing it: the nonzero-cost subset of the map EndInterval would
// return right now (same cost/freq, same post-roll windowed memory),
// ordered by SortByCostDesc and cut to n — computed with one bounded
// min-heap over the interval's dirty keys, O(touched · log n) time and
// O(n) allocation. Zero-cost cells are never candidates: a retired or
// merely-adopted cell carries no load evidence, and surfacing it would
// let delta retirement resurrect dead keys in the hot-key detector's
// input. The detector polls TopK every interval.
func (t *Tracker) TopK(n int) []KeyStat {
	if n <= 0 || len(t.dirty) == 0 {
		return nil
	}
	// colder orders by the inverse of KeyStatLess (Dest is zero for
	// every candidate, matching EndInterval's map), so the heap root is
	// always the weakest current member.
	colder := func(a, b KeyStat) bool {
		if a.Cost != b.Cost {
			return a.Cost < b.Cost
		}
		return a.Key > b.Key
	}
	heap := make([]KeyStat, 0, n)
	t.harvestDirty(func(_ tuple.Key, c *cell) {
		if c.cost == 0 {
			return
		}
		ks := KeyStat{Key: c.key, Cost: c.cost, Freq: c.freq, Mem: c.mem}
		if len(heap) < n {
			heap = append(heap, ks)
			for i := len(heap) - 1; i > 0; {
				p := (i - 1) / 2
				if !colder(heap[i], heap[p]) {
					break
				}
				heap[i], heap[p] = heap[p], heap[i]
				i = p
			}
			return
		}
		if !colder(heap[0], ks) {
			return
		}
		heap[0] = ks
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < len(heap) && colder(heap[l], heap[m]) {
				m = l
			}
			if r < len(heap) && colder(heap[r], heap[m]) {
				m = r
			}
			if m == i {
				break
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
	})
	if len(heap) == 0 {
		return nil
	}
	// EndInterval reports Mem post-roll: the current interval's state
	// lands in slot t.next (evicting the interval from w ago) and then
	// S(k, w) sums the whole ring. Equivalently, for a live cell: its
	// current mem plus every finished slot except the one about to be
	// evicted.
	for i := range heap {
		for j, h := range t.hist {
			if j == t.next {
				continue
			}
			heap[i].Mem += h[heap[i].Key]
		}
	}
	SortByCostDesc(heap)
	return heap
}

// WindowedMem returns S(k, w) = Σ_{j=i-w+1..i} s_j(k) over the finished
// intervals currently in the window.
func (t *Tracker) WindowedMem(k tuple.Key) int64 {
	var s int64
	for _, h := range t.hist {
		s += h[k]
	}
	return s
}

// Finished returns the number of completed intervals.
func (t *Tracker) Finished() int64 { return t.finished }

// Keys returns every key with any recorded history in ascending order.
// In the default mode that is current-interval observations or
// windowed memory in a finished slot — stale cells (keys whose last
// touch was an already-harvested interval and whose window has
// drained) are skipped, so a retired key cannot resurrect in scale-in
// or detector input. In a retained mode the whole tracked population
// counts as history: scale-in must migrate the aggregate's keys along
// with everything else a retiring task reports.
func (t *Tracker) Keys() []tuple.Key {
	hint := t.cur.n
	for _, h := range t.hist {
		if len(h) > hint {
			hint = len(h)
		}
	}
	seen := make(map[tuple.Key]struct{}, hint)
	if t.retain == RetainOff {
		t.cur.each(func(c *cell) {
			if c.epoch == t.epoch {
				seen[c.key] = struct{}{}
			}
		})
	} else {
		// Every live cell is either dirty this interval or a member of
		// the retained aggregate (cells leave only through DropKey,
		// which also retires them).
		t.cur.each(func(c *cell) { seen[c.key] = struct{}{} })
	}
	for _, h := range t.hist {
		for k := range h {
			seen[k] = struct{}{}
		}
	}
	out := make([]tuple.Key, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Assigner resolves a key's current and hash destinations; the route
// package's Assignment satisfies it.
type Assigner interface {
	Dest(k tuple.Key) int
	HashDest(k tuple.Key) int
	Instances() int
}

// BuildSnapshot merges per-key stats (typically from Tracker.EndInterval,
// possibly from several tasks) into a planner-ready Snapshot, resolving
// each key's current and hash destinations through the assignment.
func BuildSnapshot(interval int64, perKey map[tuple.Key]KeyStat, asg Assigner) *Snapshot {
	s := &Snapshot{Interval: interval, ND: asg.Instances(), Keys: make([]KeyStat, 0, len(perKey))}
	for k, ks := range perKey {
		ks.Key = k
		ks.Dest = asg.Dest(k)
		ks.Hash = asg.HashDest(k)
		s.Keys = append(s.Keys, ks)
	}
	SortByCostDesc(s.Keys)
	return s
}

// MergeKeyStats adds src's per-key measurements into dst (cost, freq and
// memory are additive; destinations are resolved later by
// BuildSnapshot). Used by the controller to merge task-level reports.
func MergeKeyStats(dst, src map[tuple.Key]KeyStat) {
	for k, s := range src {
		d := dst[k]
		d.Key = k
		d.Cost += s.Cost
		d.Freq += s.Freq
		d.Mem += s.Mem
		dst[k] = d
	}
}
