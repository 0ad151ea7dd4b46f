package pitree

import (
	"repro/internal/latch"
	"repro/internal/storage"
)

// Descend walks from the root to the node at level stop whose directly
// contained space includes k and returns it latched in mode. Interior
// levels are navigated optimistically (version-validated snapshot reads,
// no latches, no pins held across levels); after bounded validation
// failures the whole descent falls back to the latched discipline.
// Sibling steps call Space.Crossed, which schedules lazy completion when
// sched is set (§5.1). Index nodes passed through are recorded in path
// (nil records nothing).
func (t *Tree[N, K]) Descend(o *Op[N, K], k K, stop int, mode latch.Mode, sched bool, path *Path) (Ref[N], error) {
	if !t.Pessimistic {
		if r, err, ok := t.descendOptimistic(o, k, stop, mode, sched, path); ok {
			return r, err
		}
		t.OptFallbacks.Add(1)
	}
	return t.descendLatched(o, k, stop, mode, sched, path)
}

// descendLatched is the fully latched descent: steps follow the mortality
// rule (Op.Step).
func (t *Tree[N, K]) descendLatched(o *Op[N, K], k K, stop int, mode latch.Mode, sched bool, path *Path) (Ref[N], error) {
	// The root is acquired in mode directly when it is the target; its
	// level is only known once latched, so re-check after re-acquiring.
	cur, err := o.Acquire(t.Root, latch.S, MaxLevel)
	if err != nil {
		return Ref[N]{}, err
	}
	lvl := t.Space.Level(cur.N)
	if lvl < stop {
		o.Release(&cur)
		return Ref[N]{}, ErrLevelGone
	}
	if lvl == stop && mode != latch.S {
		// The root never moves, so dropping the S latch first is safe
		// under either mortality.
		o.Release(&cur)
		if cur, err = o.Acquire(t.Root, mode, lvl); err != nil {
			return Ref[N]{}, err
		}
		if t.Space.Level(cur.N) != stop {
			o.Release(&cur)
			return Ref[N]{}, ErrRetry
		}
	}
	return t.descendFrom(o, cur, k, stop, mode, sched, path)
}

// descendFrom continues a latched descent from cur (latched, at or above
// level stop) down to the stop-level node directly containing k. The
// optimistic descent also lands here for the final level's side walks,
// which always run latched.
func (t *Tree[N, K]) descendFrom(o *Op[N, K], cur Ref[N], k K, stop int, mode latch.Mode, sched bool, path *Path) (Ref[N], error) {
	for {
		level := t.Space.Level(cur.N)
		step, pid := t.Space.Route(cur.N, k, level > stop)
		var next Ref[N]
		var err error
		switch step {
		case Here:
			return cur, nil
		case Sibling:
			t.Space.Crossed(cur.N, cur.PID(), k, path, sched)
			next, err = o.Step(&cur, pid, cur.Mode, level)
		case Child:
			childMode := latch.S
			if level-1 == stop {
				childMode = mode
			}
			if path != nil {
				path.Set(level, cur.PID(), cur.F.PageLSN())
			}
			next, err = o.Step(&cur, pid, childMode, level-1)
		default:
			o.Release(&cur)
			return Ref[N]{}, ErrRetry
		}
		if err != nil {
			return Ref[N]{}, err
		}
		cur = next
	}
}

// --- optimistic descent ----------------------------------------------------

// optRetries bounds full-descent restarts after validation failures
// before the operation falls back to the latched path. Restarting from
// the root is cheap (a handful of atomic loads per level), so a small
// budget absorbs transient structure-change interference without risking
// livelock against a write-heavy run.
const optRetries = 3

// navRef is an unlatched, pinned view of a node: an immutable snapshot n
// proved current at latch version v. The pin keeps the frame (and its
// version counter) from being recycled while the reference is live.
type navRef[N any] struct {
	f *storage.Frame
	n N
	v uint64
}

// optCounters accumulates a descent's snapshot-read outcomes locally, so
// the hot path touches the shared counters once per operation instead of
// once per level (on a multicore run those are contended cache lines).
type optCounters struct {
	hits    int64
	retries int64
}

// navLoad returns a validated snapshot of the pinned frame f. The fast
// path is three atomic loads (published snapshot, version check); when
// the published snapshot is missing or stale a brief S latch refreshes
// it — the only latch traffic an optimistic descent generates, paid once
// per node mutation rather than once per visit. ok is false when the
// frame does not hold a node (the caller falls back to the latched path,
// which surfaces the real error).
func (t *Tree[N, K]) navLoad(f *storage.Frame, c *optCounters) (navRef[N], bool) {
	if data, pub, ok := f.NavSnapshot(); ok {
		if v, quiet := f.Latch.OptimisticRead(); quiet && v == pub {
			n, isNode := data.(N)
			if !isNode {
				return navRef[N]{}, false
			}
			c.hits++
			return navRef[N]{f: f, n: n, v: v}, true
		}
		c.retries++
	}
	f.Latch.AcquireS()
	n, isNode := f.Data.(N)
	if !isNode {
		f.Latch.ReleaseS()
		return navRef[N]{}, false
	}
	snap := t.Space.Clone(n)
	v := f.Latch.Version()
	f.PublishNav(snap, v)
	f.Latch.ReleaseS()
	return navRef[N]{f: f, n: snap, v: v}, true
}

// descendOptimistic runs bounded optimistic passes from the root; ok is
// false when the budget is exhausted (or a frame held a non-node) and
// the caller must fall back to the latched descent.
func (t *Tree[N, K]) descendOptimistic(o *Op[N, K], k K, stop int, mode latch.Mode, sched bool, path *Path) (Ref[N], error, bool) {
	var c optCounters
	r, err, ok := Ref[N]{}, error(nil), false
	for attempt := 0; attempt <= optRetries; attempt++ {
		var done bool
		r, err, done = t.optPass(o, &c, k, stop, mode, sched, path)
		if done {
			ok = true
			break
		}
	}
	if c.hits > 0 {
		t.OptHits.Add(c.hits)
	}
	if c.retries > 0 {
		t.OptRetries.Add(c.retries)
	}
	return r, err, ok
}

// optPass is one optimistic descent from the root. done is false when a
// validation failure (or a non-node frame) aborted the pass; the caller
// restarts or falls back. The protocol per edge, following Lomet &
// Salzberg's well-formedness argument (§3-§4, see DESIGN.md):
//
//  1. read the source node through a validated snapshot (navLoad);
//  2. pin the target frame named by the snapshot;
//  3. load the target's own validated snapshot;
//  4. in a mortal tree, re-validate the source's version, with the
//     source still pinned.
//
// Step 4 closes the free/re-allocate window: every de-allocation of a
// node is preceded — inside the same atomic action, under X latches — by
// removing the last reference to it (the parent's index term, or the
// delegating sibling's pointer), so an unchanged source proves the target
// was still live when step 3 read it. In an immortal tree a pointer read
// from any validated snapshot names a live node, so step 4 is skipped and
// the source is unpinned before the target is fetched: a stale snapshot
// routes exactly like a slightly earlier latched reader, and side
// pointers make every well-formed state navigable. Stop-level nodes are
// never read optimistically: the final node is latched in mode (then, in
// a mortal tree, the source is re-validated), keeping the No-Wait rule,
// move locks and degree-3 locking untouched.
func (t *Tree[N, K]) optPass(o *Op[N, K], c *optCounters, k K, stop int, mode latch.Mode, sched bool, path *Path) (Ref[N], error, bool) {
	f, err := t.rootFrame()
	if err != nil {
		return Ref[N]{}, err, true
	}
	cur, ok := t.navLoad(f, c)
	if !ok {
		t.Pool.Unpin(f)
		return Ref[N]{}, nil, false
	}
	level := t.Space.Level(cur.n)
	if level < stop {
		t.Pool.Unpin(f)
		return Ref[N]{}, ErrLevelGone, true
	}
	if level == stop {
		// The root is the target. It never moves and is never
		// de-allocated, so no source validation is needed: latch it and
		// re-check the level like the latched path does.
		t.Pool.Unpin(f)
		r, err := o.Acquire(t.Root, mode, level)
		if err != nil {
			return Ref[N]{}, err, true
		}
		if t.Space.Level(r.N) != stop {
			o.Release(&r)
			return Ref[N]{}, ErrRetry, true
		}
		r, err = t.descendFrom(o, r, k, stop, mode, sched, path)
		return r, err, true
	}

	for {
		step, pid := t.Space.Route(cur.n, k, true)
		switch step {
		case Sibling:
			t.Space.Crossed(cur.n, cur.f.ID, k, path, sched)
		case Child:
			if path != nil {
				path.Set(level, cur.f.ID, cur.f.PageLSN())
			}
			level--
			if level == stop {
				return t.optFinal(o, cur, pid, k, stop, mode, sched, path)
			}
		default:
			t.Pool.Unpin(cur.f)
			return Ref[N]{}, ErrRetry, true
		}
		next, err, done := t.optStep(cur, c, pid, level)
		if !done || err != nil {
			return Ref[N]{}, err, done
		}
		cur = next
	}
}

// optFinal follows the final edge of an optimistic pass, from the pinned
// snapshot cur to the stop-level child pid: latch the child in mode, then
// (mortal trees) prove the source still current before trusting the
// child. A fetch error on a stale source is blamed on staleness — the
// pointer may name a freed, dropped page — not on I/O.
func (t *Tree[N, K]) optFinal(o *Op[N, K], cur navRef[N], pid storage.PageID, k K, stop int, mode latch.Mode, sched bool, path *Path) (Ref[N], error, bool) {
	r, err := o.Acquire(pid, mode, stop)
	stale := t.Mortal && !cur.f.Latch.Validate(cur.v)
	t.Pool.Unpin(cur.f)
	if stale {
		o.Release(&r)
		return Ref[N]{}, nil, false
	}
	if err != nil {
		return Ref[N]{}, err, true
	}
	if t.Space.Dead(r.N) {
		o.Release(&r)
		return Ref[N]{}, ErrRetry, true
	}
	if t.Space.Level(r.N) != stop {
		o.Release(&r)
		return Ref[N]{}, nil, false
	}
	r, err = t.descendFrom(o, r, k, stop, mode, sched, path)
	return r, err, true
}

// optStep follows one interior edge from cur to pid (expected at level):
// pin the target, snapshot it, and in a mortal tree re-validate the
// source (optPass steps 2-4). cur's pin is consumed. done=false aborts
// the pass on validation failure; a non-nil error is terminal for the
// operation.
func (t *Tree[N, K]) optStep(cur navRef[N], c *optCounters, pid storage.PageID, level int) (next navRef[N], err error, done bool) {
	pool := t.Pool
	if !t.Mortal {
		pool.Unpin(cur.f)
	}
	nf, err := pool.Fetch(pid)
	if err == nil {
		next, done = t.navLoad(nf, c)
	}
	if t.Mortal {
		// A failed fetch on a stale source is staleness (the target may
		// have been freed since), not an I/O error.
		if !cur.f.Latch.Validate(cur.v) {
			done, err = false, nil
		}
		pool.Unpin(cur.f)
	}
	switch {
	case err != nil:
		return navRef[N]{}, err, true
	case !done:
	case t.Space.Dead(next.n):
		// A de-allocated node left marked; a pointer read before the
		// de-allocation committed can still land here. Retry from the
		// root, as the latched step does.
		pool.Unpin(nf)
		return navRef[N]{}, ErrRetry, true
	case t.Space.Level(next.n) == level:
		return next, nil, true
	}
	// Validation failure, a non-node frame, or a level mismatch (which a
	// validated chain cannot produce; treated as staleness).
	if nf != nil {
		pool.Unpin(nf)
	}
	return navRef[N]{}, nil, false
}
