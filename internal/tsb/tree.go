package tsb

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/keys"
	"repro/internal/latch"
	"repro/internal/lock"
	"repro/internal/maint"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Options configure one TSB tree.
type Options struct {
	// DataCapacity and IndexCapacity are maximum entry counts (page-size
	// stand-ins). Defaults: 64, 64.
	DataCapacity  int
	IndexCapacity int
	// CurrentFraction is the time-vs-key split policy knob: when fewer
	// than this fraction of a full data node's versions are alive, the
	// node is time-split (history moves out); otherwise it is key-split.
	// Default 0.67.
	CurrentFraction float64
	// SyncCompletion, CompletionWorkers and NoCompletion mirror the core
	// tree's lazy-completion controls.
	SyncCompletion    bool
	CompletionWorkers int
	NoCompletion      bool
	// CheckLatchOrder enables per-operation latch order assertions.
	CheckLatchOrder bool
	// PessimisticDescent disables the optimistic (version-validated)
	// interior navigation, forcing every descent through the latched
	// path. For comparison runs and targeted tests.
	PessimisticDescent bool
	// GC enables background version garbage collection: every committed
	// time split schedules a sweep of that leaf's history chain through
	// the completion machinery, retiring nodes whose whole time range
	// lies below the transaction manager's visibility horizon. RunGC
	// sweeps the whole tree on demand regardless of this flag.
	GC bool
	// Reclaim additionally frees the pages of fully-retired history-chain
	// tails so sustained churn reaches a steady-state store size instead
	// of growing without bound. It trades away part of the CNS latching
	// economy: history-edge traversals (and the optimistic descent's final
	// edge) latch-couple, because a saved pointer may now name a freed
	// page. Retired non-tail nodes stay linked (gcChain stops unlinking)
	// so the reaper can reach them; see reclaim.go for the full protocol.
	Reclaim bool
	// Governor, when non-nil, paces background chain maintenance (GC
	// sweeps and page reclamation) through the shared maintenance budget;
	// a nil governor admits immediately.
	Governor *maint.Governor
}

func (o Options) normalized() Options {
	if o.DataCapacity < 4 {
		if o.DataCapacity <= 0 {
			o.DataCapacity = 64
		} else {
			o.DataCapacity = 4
		}
	}
	if o.IndexCapacity < 4 {
		if o.IndexCapacity <= 0 {
			o.IndexCapacity = 64
		} else {
			o.IndexCapacity = 4
		}
	}
	if o.CurrentFraction <= 0 || o.CurrentFraction > 1 {
		o.CurrentFraction = 0.67
	}
	if o.CompletionWorkers <= 0 {
		o.CompletionWorkers = 2
	}
	return o
}

// Stats counts TSB events.
type Stats struct {
	Puts           atomic.Int64
	Gets           atomic.Int64
	TimeSplits     atomic.Int64
	KeySplits      atomic.Int64
	IndexSplits    atomic.Int64
	RootGrowths    atomic.Int64
	KeySibWalks    atomic.Int64
	HistSibWalks   atomic.Int64
	PostsScheduled atomic.Int64
	PostsPerformed atomic.Int64
	PostsNoop      atomic.Int64
	ClippedTerms   atomic.Int64
	SoftOverflows  atomic.Int64
	Restarts       atomic.Int64

	// Batched access-path counters: BatchOps counts leaf-runs applied by
	// MultiGet/MultiPut/MultiDelete (one per single-descent, single-latch
	// group); LeafVisitsSaved sums the descents those runs avoided (run
	// length minus one).
	BatchOps        atomic.Int64
	LeafVisitsSaved atomic.Int64

	// Optimistic descent counters: hits are interior-node visits served
	// from a validated snapshot without latching; retries are snapshot
	// refreshes or validation failures; fallbacks are whole descents
	// abandoned to the latched path.
	OptimisticHits      atomic.Int64
	OptimisticRetries   atomic.Int64
	OptimisticFallbacks atomic.Int64

	// Snapshot-read and version-GC counters. GCReclaimedVersions counts
	// version slots dropped from retired nodes; GCRetiredNodes counts the
	// nodes. SnapshotHistWalks counts history-sibling steps taken by
	// snapshot point reads chasing invisible versions.
	SnapshotGets        atomic.Int64
	SnapshotScans       atomic.Int64
	SnapshotHistWalks   atomic.Int64
	GCPasses            atomic.Int64
	GCRetiredNodes      atomic.Int64
	GCReclaimedVersions atomic.Int64
	GCRemovedTerms      atomic.Int64

	// Page-reclamation counters (Options.Reclaim). GCFreedPages counts
	// chain tails whose pages were returned to the free-space map;
	// GCSharedSkips, tails kept because their incoming edge is (possibly)
	// multi-referenced; GCTermSkips, tails kept because a level-1 term
	// still references them; GCDeferredFrees, frees deferred because a
	// pending completion task still names the page.
	GCFreedPages    atomic.Int64
	GCSharedSkips   atomic.Int64
	GCTermSkips     atomic.Int64
	GCDeferredFrees atomic.Int64
}

// Tree is one TSB tree. Because historical nodes never split and no node
// is ever consolidated, the CNS invariant (§5.2.1) holds: traversals hold
// one latch at a time and saved state is trusted.
type Tree struct {
	Name string

	// lockSpace is the tree's lock namespace, derived once from Name.
	lockSpace uint32

	store   *storage.Store
	tm      *txn.Manager
	lm      *lock.Manager
	binding *Binding
	opts    Options
	root    storage.PageID
	comp    *completer
	clock   atomic.Uint64
	opPool  sync.Pool
	// gcMu serializes GC passes: two concurrent passes over one chain
	// would race to retire the same victim, and the loser's atomic-action
	// abort would re-post index terms the winner removed. Page reclamation
	// runs under it too, so while a reaper walks a chain the only possible
	// structure change is a split of the chain's current head.
	gcMu sync.Mutex
	// deadPages records pages freed by reclamation (volatile, like the
	// completion queue): a completing task scheduled before the free must
	// not latch the page afterwards — it may have been recycled as an
	// unrelated node — so postTerm consults this set first.
	deadPages sync.Map

	// rootf caches the root's buffer frame with one permanent pin (the
	// root page ID is fixed and the root is never de-allocated); see the
	// core package's rootFrame.
	rootf atomic.Pointer[storage.Frame]

	Stats Stats
}

// ErrKeyNotFound reports a missing (or deleted-as-of) key.
var ErrKeyNotFound = errors.New("tsb: key not found")

var errRetry = errors.New("tsb: internal retry")

// errLevelGone reports a descent target level above the current root; the
// posting that wanted it is obsolete until the root grows, and side
// traversals will reschedule it.
var errLevelGone = errors.New("tsb: target level does not exist yet")

// Create builds a new TSB tree: a level-1 index root over one data node
// covering all keys at all times. One atomic action.
func Create(store *storage.Store, tm *txn.Manager, lm *lock.Manager, b *Binding, name string, opts Options) (*Tree, error) {
	t := &Tree{Name: name, lockSpace: lock.SpaceID("tsb", name), store: store, tm: tm, lm: lm, binding: b, opts: opts.normalized()}
	aa := tm.BeginAtomicAction()
	o := t.newOp(nil)

	if f, err := store.Pool.Fetch(storage.MetaPage); err == nil {
		store.Pool.Unpin(f)
	} else if errors.Is(err, storage.ErrPageNotFound) {
		if err := store.Bootstrap(aa); err != nil {
			return nil, err
		}
	} else {
		return nil, err
	}

	rootPid, err := store.Alloc(aa, &o.tr)
	if err != nil {
		return nil, err
	}
	dataPid, err := store.Alloc(aa, &o.tr)
	if err != nil {
		return nil, err
	}

	data := &Node{Level: 0, Rect: EntireRect()}
	root := &Node{Level: 1, Rect: EntireRect(), Entries: []Entry{{Child: dataPid, ChildRect: EntireRect()}}}
	for _, nn := range []struct {
		pid  storage.PageID
		node *Node
	}{{dataPid, data}, {rootPid, root}} {
		f, err := store.Pool.Create(nn.pid)
		if err != nil {
			return nil, err
		}
		f.Latch.AcquireX()
		lsn := aa.LogUpdate(store.Pool.StoreID, uint64(nn.pid), KindFormat, encNodeImage(nn.node))
		f.Data = nn.node
		f.MarkDirty(lsn)
		f.Latch.ReleaseX()
		store.Pool.Unpin(f)
	}
	if err := store.SetRoot(aa, &o.tr, name, rootPid); err != nil {
		return nil, err
	}
	if err := aa.Commit(); err != nil {
		return nil, err
	}
	t.root = rootPid
	t.comp = newCompleter(t)
	b.Bind(t)
	tm.SetVersionClock(t.Now, t.tick)
	return t, nil
}

// Open attaches to an existing TSB tree after a restart. The version
// clock reseeds from the clock high water restart analysis reconstructed
// (the larger of the last checkpoint's persisted clock and the largest
// commit timestamp in the stable log) — NOT from the log's end LSN, which
// lives in a different space entirely: byte-offset LSNs run far ahead of
// version ticks, so seeding from EndLSN inflated post-restart timestamps
// by orders of magnitude. The analysis high water is exact: every
// surviving version's writer has a stamped commit record in the stable
// prefix (losers' versions are removed by undo before new work runs), so
// no timestamp can be reissued.
func Open(store *storage.Store, tm *txn.Manager, lm *lock.Manager, b *Binding, name string, opts Options) (*Tree, error) {
	rootPid, err := store.Root(name)
	if err != nil {
		return nil, err
	}
	t := &Tree{Name: name, lockSpace: lock.SpaceID("tsb", name), store: store, tm: tm, lm: lm, binding: b, opts: opts.normalized(), root: rootPid}
	t.clock.Store(tm.RecoveredClockHW())
	t.comp = newCompleter(t)
	b.Bind(t)
	tm.SetVersionClock(t.Now, t.tick)
	return t, nil
}

// Close drains every scheduled completion to commit (postings, GC
// sweeps, reclamation), stops the workers, and drops the cached root pin.
// Draining first means a close-then-reopen never recovers against a
// structure change that was scheduled but silently dropped.
func (t *Tree) Close() {
	t.comp.closeDrain()
	if f := t.rootf.Swap(nil); f != nil {
		t.store.Pool.Unpin(f)
	}
}

// rootFrame returns the root's frame pinned for the caller via the cache
// in t.rootf; the first call keeps one extra permanent pin.
func (t *Tree) rootFrame() (*storage.Frame, error) {
	if f := t.rootf.Load(); f != nil {
		f.Pin()
		return f, nil
	}
	f, err := t.store.Pool.Fetch(t.root)
	if err != nil {
		return nil, err
	}
	if !t.rootf.CompareAndSwap(nil, f) {
		return f, nil // lost the cache race; our fetch pin is the caller's
	}
	f.Pin()
	return f, nil
}

// DrainCompletions blocks until all scheduled completing actions ran.
func (t *Tree) DrainCompletions() { t.comp.drain() }

// Now returns the tree's current logical time; versions written later get
// strictly larger timestamps.
func (t *Tree) Now() uint64 { return t.clock.Load() }

// tick returns a fresh, strictly increasing timestamp.
func (t *Tree) tick() uint64 { return t.clock.Add(1) }

// Options returns the normalized options.
func (t *Tree) Options() Options { return t.opts }

func (t *Tree) recLockName(k keys.Key) lock.Name { return lock.KeyName(t.lockSpace, k) }

// --- operation context (CNS: one latch at a time) ---------------------------

type opCtx struct {
	t   *Tree
	txn *txn.Txn
	tr  latch.Tracker
	seq uint64
}

// newOp checks out a pooled operation context; done returns it. Pooling
// keeps the tracker's hold slice (and the context itself) off the
// per-operation allocation path.
func (t *Tree) newOp(tx *txn.Txn) *opCtx {
	o, _ := t.opPool.Get().(*opCtx)
	if o == nil {
		o = new(opCtx)
	}
	o.t = t
	o.txn = tx
	o.seq = 0
	o.tr.Reset(t.opts.CheckLatchOrder)
	return o
}

func (o *opCtx) done() {
	o.tr.AssertNoneHeld()
	o.txn = nil
	o.t.opPool.Put(o)
}

const maxLevel = 63

func (o *opCtx) rank(level int) latch.Rank {
	o.seq++
	return latch.Rank(uint64(maxLevel-level)<<40 | (o.seq & (1<<40 - 1)))
}

type nref struct {
	f    *storage.Frame
	n    *Node
	mode latch.Mode
}

func (r *nref) pid() storage.PageID { return r.f.ID }

func (o *opCtx) acquire(pid storage.PageID, mode latch.Mode, level int) (nref, error) {
	f, err := o.t.store.Pool.Fetch(pid)
	if err != nil {
		return nref{}, err
	}
	f.Latch.Acquire(mode)
	o.tr.Acquired(&f.Latch, o.rank(level), mode)
	n, ok := f.Data.(*Node)
	if !ok {
		o.tr.Released(&f.Latch)
		f.Latch.Release(mode)
		o.t.store.Pool.Unpin(f)
		return nref{}, fmt.Errorf("tsb: page %d holds %T, not a node", pid, f.Data)
	}
	return nref{f: f, n: n, mode: mode}, nil
}

func (o *opCtx) release(r *nref) {
	if r.f == nil {
		return
	}
	o.tr.Released(&r.f.Latch)
	r.f.Latch.Release(r.mode)
	o.t.store.Pool.Unpin(r.f)
	r.f = nil
	r.n = nil
}

func (o *opCtx) promote(r *nref) {
	r.f.Latch.Promote()
	o.tr.Promoted(&r.f.Latch)
	r.mode = latch.X
}

// step releases cur and acquires pid. Without reclamation no coupling is
// needed (CNS: nodes are immortal, a saved pointer always names a live
// node). With Options.Reclaim the target of a saved pointer may have been
// freed — and its page recycled — between the release and the acquire, so
// the step latch-couples: the reaper removes a page's last reference
// under the referencer's X latch before freeing, so a reader holding the
// source while acquiring the target either passes before the cut or
// finds the edge already gone.
func (t *Tree) step(o *opCtx, cur *nref, pid storage.PageID, mode latch.Mode, level int) (nref, error) {
	if t.opts.Reclaim {
		next, err := o.acquire(pid, mode, level)
		o.release(cur)
		return next, err
	}
	o.release(cur)
	return o.acquire(pid, mode, level)
}

// descend walks from the root to the node at stopLevel whose directly
// contained rectangle includes (k, time), latched in finalMode. Sibling
// traversals at any level schedule the corresponding completing posting
// when sched is true. Interior levels are navigated optimistically
// (version-validated snapshot reads, no latches); after bounded
// validation failures the descent falls back to the latched path.
func (t *Tree) descend(o *opCtx, k keys.Key, time uint64, stopLevel int, finalMode latch.Mode, sched bool) (nref, error) {
	if !t.opts.PessimisticDescent {
		if r, err, ok := t.descendOptimistic(o, k, time, stopLevel, finalMode, sched); ok {
			return r, err
		}
		t.Stats.OptimisticFallbacks.Add(1)
	}
	return t.descendLatched(o, k, time, stopLevel, finalMode, sched)
}

// descendLatched is the fully latched descent (CNS: one latch at a
// time).
func (t *Tree) descendLatched(o *opCtx, k keys.Key, time uint64, stopLevel int, finalMode latch.Mode, sched bool) (nref, error) {
	cur, err := o.acquire(t.root, latch.S, maxLevel)
	if err != nil {
		return nref{}, err
	}
	if cur.n.Level < stopLevel {
		o.release(&cur)
		return nref{}, errLevelGone
	}
	if cur.n.Level == stopLevel && finalMode != latch.S {
		lvl := cur.n.Level
		o.release(&cur)
		cur, err = o.acquire(t.root, finalMode, lvl)
		if err != nil {
			return nref{}, err
		}
		if cur.n.Level != stopLevel {
			o.release(&cur)
			return nref{}, errRetry
		}
	}
	return t.descendFrom(o, cur, k, time, stopLevel, finalMode, sched)
}

// descendFrom continues a latched descent from cur (already latched, at
// or above stopLevel). The optimistic descent also lands here for the
// final level's sibling traversals, which always run latched.
func (t *Tree) descendFrom(o *opCtx, cur nref, k keys.Key, time uint64, stopLevel int, finalMode latch.Mode, sched bool) (nref, error) {
	for {
		// Key-sibling traversal (any level).
		for !cur.n.Rect.ContainsKey(k) {
			if cur.n.Rect.KeyLow != nil && keys.Compare(k, cur.n.Rect.KeyLow) < 0 {
				o.release(&cur)
				return nref{}, errRetry
			}
			sib := cur.n.KeySib
			if sib == storage.NilPage {
				o.release(&cur)
				return nref{}, errRetry
			}
			t.Stats.KeySibWalks.Add(1)
			if sched {
				t.noteKeySibling(cur.n, cur.pid())
			}
			next, err := t.step(o, &cur, sib, cur.mode, cur.n.Level)
			if err != nil {
				return nref{}, err
			}
			cur = next
		}
		// History-sibling traversal (data level only; index nodes span
		// all time).
		for cur.n.IsData() && time < cur.n.Rect.TimeLow {
			hist := cur.n.HistSib
			if hist == storage.NilPage {
				// No history before the tree existed: land here.
				break
			}
			t.Stats.HistSibWalks.Add(1)
			if sched {
				t.noteHistSibling(cur.n)
			}
			next, err := t.step(o, &cur, hist, cur.mode, cur.n.Level)
			if err != nil {
				return nref{}, err
			}
			cur = next
			// A history node's key range can be wider than the search
			// path suggests; keys stay inside by construction.
		}
		if cur.n.Level == stopLevel {
			return cur, nil
		}
		var child storage.PageID
		if cur.n.Level == 1 {
			e, ok := cur.n.chooseTerm(k, time)
			if !ok {
				o.release(&cur)
				return nref{}, errRetry
			}
			child = e.Child
		} else {
			e, ok := cur.n.keyChildFor(k)
			if !ok {
				o.release(&cur)
				return nref{}, errRetry
			}
			child = e.Child
		}
		childLevel := cur.n.Level - 1
		childMode := latch.S
		if childLevel == stopLevel {
			childMode = finalMode
		}
		next, err := t.step(o, &cur, child, childMode, childLevel)
		if err != nil {
			return nref{}, err
		}
		cur = next
	}
}

// --- optimistic descent ------------------------------------------------------

// optRetries bounds full-descent restarts after validation failures
// before the operation falls back to the latched path.
const optRetries = 3

// navRef is an unlatched, pinned view of a node: an immutable snapshot n
// proved current at latch version v. The pin keeps the frame (and its
// version counter) from being recycled while the reference is live.
type navRef struct {
	f *storage.Frame
	n *Node
	v uint64
}

// optCounters accumulates a descent's snapshot-read outcomes locally;
// the shared Stats words are touched once per operation, not per level.
type optCounters struct {
	hits    int64
	retries int64
}

// navLoad returns a validated snapshot of the pinned frame f; see the
// core package's navLoad for the protocol. ok is false when the frame
// does not hold a node (the caller falls back to the latched path).
func (t *Tree) navLoad(f *storage.Frame, c *optCounters) (navRef, bool) {
	if data, pub, ok := f.NavSnapshot(); ok {
		if v, quiet := f.Latch.OptimisticRead(); quiet && v == pub {
			n, isNode := data.(*Node)
			if !isNode {
				return navRef{}, false
			}
			c.hits++
			return navRef{f: f, n: n, v: v}, true
		}
		c.retries++
	}
	f.Latch.AcquireS()
	n, isNode := f.Data.(*Node)
	if !isNode {
		f.Latch.ReleaseS()
		return navRef{}, false
	}
	snap := n.clone()
	v := f.Latch.Version()
	f.PublishNav(snap, v)
	f.Latch.ReleaseS()
	return navRef{f: f, n: snap, v: v}, true
}

// descendOptimistic runs bounded optimistic passes from the root; ok is
// false when the budget is exhausted and the caller must fall back.
func (t *Tree) descendOptimistic(o *opCtx, k keys.Key, time uint64, stopLevel int, finalMode latch.Mode, sched bool) (nref, error, bool) {
	var c optCounters
	r, err, ok := nref{}, error(nil), false
	for attempt := 0; attempt <= optRetries; attempt++ {
		var done bool
		r, err, done = t.optPass(o, &c, k, time, stopLevel, finalMode, sched)
		if done {
			ok = true
			break
		}
	}
	if c.hits > 0 {
		t.Stats.OptimisticHits.Add(c.hits)
	}
	if c.retries > 0 {
		t.Stats.OptimisticRetries.Add(c.retries)
	}
	return r, err, ok
}

// optPass is one optimistic descent from the root. The TSB tree obeys
// the CNS invariant — nodes never move and index nodes are never
// de-allocated — so a pointer read from a validated snapshot always
// names a live node and no source re-validation is needed after
// following it: a stale snapshot routes exactly like a slightly earlier
// latched reader, and sibling pointers make every well-formed state
// navigable. Validation here only bounds staleness (navLoad refreshes a
// snapshot whose version moved). The one exception is the final
// level-1→data edge under Options.Reclaim: data pages CAN then be freed
// and recycled, so after latching the child the source snapshot is
// re-validated, exactly like the core (CP) tree's final edge — a stale
// term in an old snapshot must not hand back a recycled page. The final
// node is latched in finalMode; history-sibling walks happen only at the
// data level, which is the stop level for every data access, so they
// always run latched in descendFrom.
func (t *Tree) optPass(o *opCtx, c *optCounters, k keys.Key, time uint64, stopLevel int, finalMode latch.Mode, sched bool) (nref, error, bool) {
	pool := t.store.Pool
	f, err := t.rootFrame()
	if err != nil {
		return nref{}, err, true
	}
	cur, ok := t.navLoad(f, c)
	if !ok {
		pool.Unpin(f)
		return nref{}, nil, false
	}
	if cur.n.Level < stopLevel {
		pool.Unpin(f)
		return nref{}, errLevelGone, true
	}
	if cur.n.Level == stopLevel {
		// The root is the target: latch it and re-check like the latched
		// path does (the root never moves).
		lvl := cur.n.Level
		pool.Unpin(f)
		r, err := o.acquire(t.root, finalMode, lvl)
		if err != nil {
			return nref{}, err, true
		}
		if r.n.Level != stopLevel {
			o.release(&r)
			return nref{}, errRetry, true
		}
		r2, err := t.descendFrom(o, r, k, time, stopLevel, finalMode, sched)
		return r2, err, true
	}

	for {
		// Key-sibling traversal on validated snapshots. (History-sibling
		// walks never occur here: they exist only at the data level.)
		if !cur.n.Rect.ContainsKey(k) {
			if cur.n.Rect.KeyLow != nil && keys.Compare(k, cur.n.Rect.KeyLow) < 0 {
				pool.Unpin(cur.f)
				return nref{}, errRetry, true
			}
			sib := cur.n.KeySib
			if sib == storage.NilPage {
				pool.Unpin(cur.f)
				return nref{}, errRetry, true
			}
			t.Stats.KeySibWalks.Add(1)
			if sched {
				t.noteKeySibling(cur.n, cur.f.ID)
			}
			next, err, done := t.optStep(cur, c, sib, cur.n.Level)
			if !done {
				return nref{}, nil, false
			}
			if err != nil {
				return nref{}, err, true
			}
			cur = next
			continue
		}

		var child storage.PageID
		if cur.n.Level == 1 {
			e, ok := cur.n.chooseTerm(k, time)
			if !ok {
				pool.Unpin(cur.f)
				return nref{}, errRetry, true
			}
			child = e.Child
		} else {
			e, ok := cur.n.keyChildFor(k)
			if !ok {
				pool.Unpin(cur.f)
				return nref{}, errRetry, true
			}
			child = e.Child
		}
		childLevel := cur.n.Level - 1
		if childLevel == stopLevel {
			// Final edge: latch the child in finalMode. Without Reclaim no
			// source validation is needed — the child is immortal. With it,
			// the term may be stale and the page freed or recycled: prove
			// the source snapshot still current after the acquire (and
			// blame staleness, not I/O, for a failed fetch) before
			// trusting the child.
			r, err := o.acquire(child, finalMode, childLevel)
			if t.opts.Reclaim {
				if err != nil {
					stale := !cur.f.Latch.Validate(cur.v)
					pool.Unpin(cur.f)
					if stale {
						return nref{}, nil, false
					}
					return nref{}, err, true
				}
				if !cur.f.Latch.Validate(cur.v) {
					o.release(&r)
					pool.Unpin(cur.f)
					return nref{}, nil, false
				}
			}
			pool.Unpin(cur.f)
			if err != nil {
				return nref{}, err, true
			}
			if r.n.Level != stopLevel {
				o.release(&r)
				return nref{}, nil, false
			}
			r2, err := t.descendFrom(o, r, k, time, stopLevel, finalMode, sched)
			return r2, err, true
		}
		next, err, done := t.optStep(cur, c, child, childLevel)
		if !done {
			return nref{}, nil, false
		}
		if err != nil {
			return nref{}, err, true
		}
		cur = next
	}
}

// optStep follows one edge from cur to pid (expected at level). cur's
// pin is consumed. CNS: the target is immortal, so no source
// re-validation is performed after loading it. done=false aborts the
// pass (non-node frame or defensive level mismatch).
func (t *Tree) optStep(cur navRef, c *optCounters, pid storage.PageID, level int) (navRef, error, bool) {
	pool := t.store.Pool
	pool.Unpin(cur.f)
	nf, err := pool.Fetch(pid)
	if err != nil {
		return navRef{}, err, true
	}
	next, ok := t.navLoad(nf, c)
	if !ok {
		pool.Unpin(nf)
		return navRef{}, nil, false
	}
	if next.n.Level != level {
		pool.Unpin(nf)
		return navRef{}, nil, false
	}
	return next, nil, true
}

func (t *Tree) retryLoop(fn func() error) error {
	for {
		err := fn()
		if errors.Is(err, errRetry) {
			t.Stats.Restarts.Add(1)
			continue
		}
		return err
	}
}

// --- public operations -------------------------------------------------------

// Put writes a new version of key with value, timestamped now. With a nil
// transaction the put runs as its own atomic action.
func (t *Tree) Put(tx *txn.Txn, key keys.Key, value []byte) error {
	return t.put(tx, key, value, false)
}

// Delete writes a tombstone version of key: as-of reads at earlier times
// still see the old versions.
func (t *Tree) Delete(tx *txn.Txn, key keys.Key) error {
	return t.put(tx, key, nil, true)
}

func (t *Tree) put(tx *txn.Txn, key keys.Key, value []byte, deleted bool) error {
	t.Stats.Puts.Add(1)
	return t.retryLoop(func() error {
		o := t.newOp(tx)
		defer o.done()
		leaf, err := t.descend(o, key, NoEnd-1, 0, latch.U, true)
		if err != nil {
			return err
		}
		if !leaf.n.Current() {
			// Writes must land on a current node; an approximate descent
			// that ends in history restarts (selection makes this rare).
			o.release(&leaf)
			return errRetry
		}
		if tx != nil && !tx.TryLock(t.recLockName(key), lock.X) {
			o.release(&leaf)
			if err := tx.Lock(t.recLockName(key), lock.X); err != nil {
				return err
			}
			return errRetry
		}
		if len(leaf.n.Entries) >= t.opts.DataCapacity {
			if err := t.splitData(o, &leaf); err != nil {
				return err
			}
			return errRetry
		}
		var lg *txn.Txn
		if tx != nil {
			lg = tx
		} else {
			lg = t.tm.BeginAtomicAction()
		}
		o.promote(&leaf)
		ts := t.tick()
		var writer wal.TxnID
		if tx != nil {
			writer = tx.ID // snapshot visibility resolves it; AA puts (0) are atomic under the latch
		}
		e := Entry{Key: keys.Clone(key), Start: ts, Value: append([]byte(nil), value...), Deleted: deleted, Txn: writer}
		lsn := lg.LogUpdate(t.store.Pool.StoreID, uint64(leaf.pid()), KindPut, encPut(e))
		leaf.n.insertVersion(e)
		leaf.f.MarkDirty(lsn)
		if tx == nil {
			if cerr := lg.Commit(); cerr != nil {
				o.release(&leaf)
				return cerr
			}
		}
		o.release(&leaf)
		return nil
	})
}

// Get returns the current value of key.
func (t *Tree) Get(tx *txn.Txn, key keys.Key) ([]byte, bool, error) {
	return t.GetAsOf(tx, key, t.Now())
}

// GetAsOf returns the value of key as of time. Historical versions are
// immutable, so as-of reads below the current time need no locks; reads
// at the current time under a transaction take the record S lock.
func (t *Tree) GetAsOf(tx *txn.Txn, key keys.Key, time uint64) ([]byte, bool, error) {
	t.Stats.Gets.Add(1)
	var val []byte
	var found bool
	err := t.retryLoop(func() error {
		o := t.newOp(tx)
		defer o.done()
		leaf, err := t.descend(o, key, time, 0, latch.S, true)
		if err != nil {
			return err
		}
		if tx != nil && time >= t.Now() {
			if !tx.TryLock(t.recLockName(key), lock.S) {
				o.release(&leaf)
				if err := tx.Lock(t.recLockName(key), lock.S); err != nil {
					return err
				}
				return errRetry
			}
		}
		if i, ok := leaf.n.searchVersion(key, time); ok && !leaf.n.Entries[i].Deleted {
			val = append([]byte(nil), leaf.n.Entries[i].Value...)
			found = true
		} else {
			val, found = nil, false
		}
		o.release(&leaf)
		return nil
	})
	return val, found, err
}

// ScanAsOf calls fn for every key in [lo, hi) alive as of time, in key
// order. hi may be nil for an unbounded scan.
func (t *Tree) ScanAsOf(time uint64, lo, hi keys.Key, fn func(k keys.Key, v []byte) bool) error {
	cursor := keys.Clone(lo)
	for leaves := 1; ; leaves++ {
		type rec struct {
			k keys.Key
			v []byte
		}
		var batch []rec
		var next keys.Key
		done := false
		err := t.retryLoop(func() error {
			batch = batch[:0]
			o := t.newOp(nil)
			defer o.done()
			leaf, err := t.descend(o, cursor, time, 0, latch.S, true)
			if err != nil {
				return err
			}
			// The live version at `time` is, per key, the last entry with
			// Start <= time; entries are sorted by (key, start), so track
			// the current key group and flush on key change.
			var curKey keys.Key
			var curVal []byte
			curDel := false
			flush := func() {
				if curKey != nil && !curDel {
					batch = append(batch, rec{k: keys.Clone(curKey), v: append([]byte(nil), curVal...)})
				}
				curKey, curVal, curDel = nil, nil, false
			}
			for _, e := range leaf.n.Entries {
				if keys.Compare(e.Key, cursor) < 0 {
					continue
				}
				if hi != nil && keys.Compare(e.Key, hi) >= 0 {
					break
				}
				if e.Start > time {
					continue
				}
				if curKey == nil || !keys.Equal(curKey, e.Key) {
					flush()
					curKey = e.Key
				}
				curVal, curDel = e.Value, e.Deleted
			}
			flush()
			if leaf.n.Rect.KeyHigh.Unbounded {
				done = true
			} else {
				next = keys.Clone(leaf.n.Rect.KeyHigh.Key)
				if hi != nil && keys.Compare(next, hi) >= 0 {
					done = true
				}
			}
			if !done {
				// Read-ahead: the key sibling is the next leaf the scan will
				// descend to; start its disk read under this leaf's latch so
				// it overlaps the callback work on this batch. The hint's
				// run (leaves consumed so far) ramps the read-ahead depth.
				t.store.Pool.PrefetchAsync(leaf.n.KeySib, leaves)
			}
			o.release(&leaf)
			return nil
		})
		if err != nil {
			return err
		}
		for _, r := range batch {
			if !fn(r.k, r.v) {
				return nil
			}
		}
		if done {
			return nil
		}
		cursor = next
	}
}

// logicalUndoPut compensates a Put by removing the exact version from
// wherever it now lives. A time split performed after the put may have
// COPIED the version into a history node (alive-across versions exist in
// both nodes), so the undo walks the history chain from the current node
// back past Start, removing every copy; each removal is its own CLR with
// the same UndoNext, keeping restart idempotent.
//
// Each removal must also preserve the carryover invariant snapshot reads
// depend on: a node holds, per key it knows, the newest version older
// than its TimeLow, so "key group empty / oldest entry at or above
// TimeLow" proves no older version exists anywhere. If the version being
// undone is a node's only below-TimeLow copy of the key (a time split
// carried the doomed version), plain removal would leave the node
// asserting that older versions don't exist while a committed
// predecessor still lives in the history chain — a lock-free snapshot
// reader would then return not-found for a key it should see. The undo
// therefore fetches the predecessor from the chain first and re-carries
// it in the same X-latched mutation as the removal, so no reader ever
// observes a carry-broken node.
func (t *Tree) logicalUndoPut(rec *wal.Record, e Entry) error {
	tx, ok := t.tm.Lookup(rec.TxnID)
	if !ok {
		return fmt.Errorf("tsb: logical undo for unknown txn %d", rec.TxnID)
	}
	return t.retryLoop(func() error {
		o := t.newOp(nil)
		defer o.done()
		cur, err := t.descend(o, e.Key, NoEnd-1, 0, latch.U, false)
		if err != nil {
			return err
		}
		// Intermediate removal CLRs point back AT rec (UndoNext=rec.LSN):
		// a crash mid-undo re-runs the whole logical undo, which is
		// idempotent. Only the terminal CLR advances past rec.
		for {
			if _, ok := cur.n.versionPos(e.Key, e.Start); ok {
				// Fetch the carryover repair before mutating anything:
				// the chain walk can fail with errRetry, and the whole
				// undo must be restartable with the node still intact.
				repair, repaired, err := t.carryRepair(o, &cur, e)
				if err != nil {
					o.release(&cur)
					return err
				}
				o.promote(&cur)
				lsn := tx.LogCLR(t.store.Pool.StoreID, uint64(cur.pid()), KindRemoveVersion, encVersionRef(e.Key, e.Start), rec.LSN)
				cur.n.removeVersion(e.Key, e.Start)
				if repaired {
					lsn = tx.LogCLR(t.store.Pool.StoreID, uint64(cur.pid()), KindPut, encPut(repair), rec.LSN)
					cur.n.insertVersion(repair)
				}
				cur.f.MarkDirty(lsn)
			}
			if cur.n.Rect.TimeLow <= e.Start || cur.n.HistSib == storage.NilPage {
				break
			}
			hist := cur.n.HistSib
			next, err := t.step(o, &cur, hist, latch.U, 0)
			if err != nil {
				return err
			}
			cur = next
		}
		o.release(&cur)
		tx.LogCLR(0, 0, 0, nil, rec.PrevLSN)
		return nil
	})
}

// carryRepair decides whether removing version e from cur would break
// the carryover invariant, and if so returns a clone of the predecessor
// to re-carry: the newest surviving version of e.Key older than e.Start.
// The predecessor is found by walking the history chain from cur with
// the same stop rules snapshot reads use; chain nodes are latched S in
// newer→older order while cur stays held — the acquisition order every
// chain walker follows, so ranks ascend and no cycle can form. The walk
// latch-couples (each node held until its successor is latched): under
// Options.Reclaim a saved chain pointer may name a freed page, and the
// coupling is what serializes against the reaper's edge cut. An
// empty group or an all-at-or-above-TimeLow group in a chain node ends
// the walk: by induction that node's carryover proves nothing older
// exists (a retired node reads as empty, which is sound — retirement
// required every newer live node to carry the survivors' newest copies,
// so the predecessor would have been found before reaching it).
func (t *Tree) carryRepair(o *opCtx, cur *nref, e Entry) (Entry, bool, error) {
	if e.Start >= cur.n.Rect.TimeLow || cur.n.HistSib == storage.NilPage {
		return Entry{}, false, nil
	}
	lo, hi := keyGroup(cur.n, e.Key)
	for i := lo; i < hi; i++ {
		if cur.n.Entries[i].Start < cur.n.Rect.TimeLow && cur.n.Entries[i].Start != e.Start {
			return Entry{}, false, nil // another below-TimeLow copy remains
		}
	}
	var prev nref
	for pid := cur.n.HistSib; pid != storage.NilPage; {
		h, err := o.acquire(pid, latch.S, 0)
		o.release(&prev) // no-op on the first edge: cur itself stays held
		if err != nil {
			return Entry{}, false, err
		}
		lo, hi := keyGroup(h.n, e.Key)
		for i := hi - 1; i >= lo; i-- {
			if h.n.Entries[i].Start < e.Start {
				out := cloneEntry(h.n.Entries[i])
				o.release(&h)
				return out, true, nil
			}
		}
		if hi == lo || h.n.Entries[lo].Start >= h.n.Rect.TimeLow {
			o.release(&h)
			return Entry{}, false, nil
		}
		pid = h.n.HistSib
		prev = h
	}
	o.release(&prev)
	return Entry{}, false, nil
}
