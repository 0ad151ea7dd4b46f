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
	"repro/internal/pitree"
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
	o.DataCapacity = pitree.Capacity(o.DataCapacity)
	o.IndexCapacity = pitree.Capacity(o.IndexCapacity)
	if o.CurrentFraction <= 0 || o.CurrentFraction > 1 {
		o.CurrentFraction = 0.67
	}
	o.CompletionWorkers = pitree.Workers(o.CompletionWorkers)
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
// one latch at a time and saved state is trusted. Options.Reclaim is the
// exception: it frees retired history pages, which makes the tree mortal
// (see internal/pitree), so traversals latch-couple.
type Tree struct {
	Name string

	// lockSpace is the tree's lock namespace, derived once from Name.
	lockSpace uint32

	store   *storage.Store
	tm      *txn.Manager
	lm      *lock.Manager
	binding *Binding
	opts    Options
	comp    *completer
	// pi is the tree's instance of the shared Π-tree protocol: latch
	// contexts, descents and the cached root frame.
	pi    *pitree.Tree[*Node, target]
	clock atomic.Uint64
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

	Stats Stats
}

// ErrKeyNotFound reports a missing (or deleted-as-of) key.
var ErrKeyNotFound = errors.New("tsb: key not found")

// Create builds a new TSB tree: a level-1 index root over one data node
// covering all keys at all times. One atomic action.
func Create(store *storage.Store, tm *txn.Manager, lm *lock.Manager, b *Binding, name string, opts Options) (*Tree, error) {
	t := newTree(store, tm, lm, b, name, opts, storage.NilPage)
	if err := t.pi.Create(tm, store, name, 2, KindFormat, encNodeImage, func(pids []storage.PageID) []*Node {
		return []*Node{
			{Level: 1, Rect: EntireRect(), Entries: []Entry{{Child: pids[1], ChildRect: EntireRect()}}},
			{Level: 0, Rect: EntireRect()},
		}
	}); err != nil {
		return nil, err
	}
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
	t := newTree(store, tm, lm, b, name, opts, rootPid)
	t.clock.Store(tm.RecoveredClockHW())
	t.comp = newCompleter(t)
	b.Bind(t)
	tm.SetVersionClock(t.Now, t.tick)
	return t, nil
}

// newTree builds the tree's in-memory state around root.
func newTree(store *storage.Store, tm *txn.Manager, lm *lock.Manager, b *Binding, name string, opts Options, root storage.PageID) *Tree {
	t := &Tree{Name: name, lockSpace: lock.SpaceID("tsb", name), store: store, tm: tm, lm: lm, binding: b, opts: opts.normalized()}
	t.pi = &pitree.Tree[*Node, target]{
		Space:           space{t},
		Pool:            store.Pool,
		Root:            root,
		Name:            "tsb",
		Mortal:          t.opts.Reclaim,
		Pessimistic:     t.opts.PessimisticDescent,
		CheckLatchOrder: t.opts.CheckLatchOrder,
		Counters: pitree.Counters{
			OptHits:      &t.Stats.OptimisticHits,
			OptRetries:   &t.Stats.OptimisticRetries,
			OptFallbacks: &t.Stats.OptimisticFallbacks,
			Restarts:     &t.Stats.Restarts,
		},
	}
	return t
}

// Close drains every scheduled completion to commit (postings, GC
// sweeps, reclamation), stops the workers, and drops the cached root pin.
// Draining first means a close-then-reopen never recovers against a
// structure change that was scheduled but silently dropped.
func (t *Tree) Close() {
	t.comp.CloseDrain()
	t.pi.Close()
}

// DrainCompletions blocks until all scheduled completing actions ran.
func (t *Tree) DrainCompletions() { t.comp.Drain() }

// Now returns the tree's current logical time; versions written later get
// strictly larger timestamps.
func (t *Tree) Now() uint64 { return t.clock.Load() }

// tick returns a fresh, strictly increasing timestamp.
func (t *Tree) tick() uint64 { return t.clock.Add(1) }

// Options returns the normalized options.
func (t *Tree) Options() Options { return t.opts }

func (t *Tree) recLockName(k keys.Key) lock.Name { return lock.KeyName(t.lockSpace, k) }

// --- the node space ----------------------------------------------------------

// Operation contexts and latched references are the shared protocol's
// (see internal/pitree).
type (
	opCtx = pitree.Op[*Node, target]
	nref  = pitree.Ref[*Node]
)

// target is a TSB search target: a key as of a time.
type target struct {
	key  keys.Key
	time uint64
}

// space is the TSB node space: a node directly contains a key range over
// a time range, delegates higher keys to its key sibling and, at the data
// level, earlier times to its history sibling. Index nodes span all time.
type space struct{ t *Tree }

func (space) Level(n *Node) int   { return n.Level }
func (space) Dead(*Node) bool     { return false }
func (space) Clone(n *Node) *Node { return n.clone() }

func (space) Route(n *Node, k target, down bool) (pitree.Step, storage.PageID) {
	if !n.Rect.ContainsKey(k.key) {
		if n.KeySib == storage.NilPage || (n.Rect.KeyLow != nil && keys.Compare(k.key, n.Rect.KeyLow) < 0) {
			return pitree.Retry, storage.NilPage
		}
		return pitree.Sibling, n.KeySib
	}
	// A history node's key range can be wider than the search path
	// suggests; keys stay inside by construction. With no history before
	// the tree existed, the walk lands on the oldest node.
	if n.IsData() && k.time < n.Rect.TimeLow && n.HistSib != storage.NilPage {
		return pitree.Sibling, n.HistSib
	}
	if !down {
		return pitree.Here, storage.NilPage
	}
	var e Entry
	ok := false
	if n.Level == 1 {
		e, ok = n.chooseTerm(k.key, k.time)
	} else {
		e, ok = n.keyChildFor(k.key)
	}
	if !ok {
		return pitree.Retry, storage.NilPage
	}
	return pitree.Child, e.Child
}

func (s space) Crossed(n *Node, pid storage.PageID, k target, _ *pitree.Path, sched bool) {
	if !n.Rect.ContainsKey(k.key) {
		s.t.Stats.KeySibWalks.Add(1)
		if sched {
			s.t.noteKeySibling(n, pid)
		}
		return
	}
	s.t.Stats.HistSibWalks.Add(1)
	if sched {
		s.t.noteHistSibling(n)
	}
}

// descend walks from the root to the node at stopLevel whose directly
// contained rectangle includes (k, time), latched in finalMode (see
// pitree.Tree.Descend).
func (t *Tree) descend(o *opCtx, k keys.Key, time uint64, stopLevel int, finalMode latch.Mode, sched bool) (nref, error) {
	return t.pi.Descend(o, target{k, time}, stopLevel, finalMode, sched, nil)
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
	return t.pi.Retry(func() error {
		o := t.pi.NewOp(tx)
		defer o.Done()
		leaf, err := t.descend(o, key, NoEnd-1, 0, latch.U, true)
		if err != nil {
			return err
		}
		if !leaf.N.Current() {
			// Writes must land on a current node; an approximate descent
			// that ends in history restarts (selection makes this rare).
			o.Release(&leaf)
			return pitree.ErrRetry
		}
		if err := o.LockDance(&leaf, t.recLockName(key), lock.X); err != nil {
			return err
		}
		if len(leaf.N.Entries) >= t.opts.DataCapacity {
			if err := t.splitData(o, &leaf); err != nil {
				return err
			}
			return pitree.ErrRetry
		}
		var lg *txn.Txn
		if tx != nil {
			lg = tx
		} else {
			lg = t.tm.BeginAtomicAction()
		}
		o.Promote(&leaf)
		ts := t.tick()
		var writer wal.TxnID
		if tx != nil {
			writer = tx.ID // snapshot visibility resolves it; AA puts (0) are atomic under the latch
		}
		e := Entry{Key: keys.Clone(key), Start: ts, Value: append([]byte(nil), value...), Deleted: deleted, Txn: writer}
		lsn := lg.LogUpdate(t.store.Pool.StoreID, uint64(leaf.PID()), KindPut, encPut(e))
		leaf.N.insertVersion(e)
		leaf.F.MarkDirty(lsn)
		if tx == nil {
			if cerr := lg.Commit(); cerr != nil {
				o.Release(&leaf)
				return cerr
			}
		}
		o.Release(&leaf)
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
	err := t.pi.Retry(func() error {
		o := t.pi.NewOp(tx)
		defer o.Done()
		leaf, err := t.descend(o, key, time, 0, latch.S, true)
		if err != nil {
			return err
		}
		if time >= t.Now() {
			if err := o.LockDance(&leaf, t.recLockName(key), lock.S); err != nil {
				return err
			}
		}
		if i, ok := leaf.N.searchVersion(key, time); ok && !leaf.N.Entries[i].Deleted {
			val = append([]byte(nil), leaf.N.Entries[i].Value...)
			found = true
		} else {
			val, found = nil, false
		}
		o.Release(&leaf)
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
		err := t.pi.Retry(func() error {
			batch = batch[:0]
			o := t.pi.NewOp(nil)
			defer o.Done()
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
			for _, e := range leaf.N.Entries {
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
			if leaf.N.Rect.KeyHigh.Unbounded {
				done = true
			} else {
				next = keys.Clone(leaf.N.Rect.KeyHigh.Key)
				if hi != nil && keys.Compare(next, hi) >= 0 {
					done = true
				}
			}
			if !done {
				// Read-ahead: the key sibling is the next leaf the scan will
				// descend to; start its disk read under this leaf's latch so
				// it overlaps the callback work on this batch. The hint's
				// run (leaves consumed so far) ramps the read-ahead depth.
				t.store.Pool.PrefetchAsync(leaf.N.KeySib, leaves)
			}
			o.Release(&leaf)
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
	return t.pi.Retry(func() error {
		o := t.pi.NewOp(nil)
		defer o.Done()
		cur, err := t.descend(o, e.Key, NoEnd-1, 0, latch.U, false)
		if err != nil {
			return err
		}
		// Intermediate removal CLRs point back AT rec (UndoNext=rec.LSN):
		// a crash mid-undo re-runs the whole logical undo, which is
		// idempotent. Only the terminal CLR advances past rec.
		for {
			if _, ok := cur.N.versionPos(e.Key, e.Start); ok {
				// Fetch the carryover repair before mutating anything:
				// the chain walk can fail with pitree.ErrRetry, and the whole
				// undo must be restartable with the node still intact.
				repair, repaired, err := t.carryRepair(o, &cur, e)
				if err != nil {
					o.Release(&cur)
					return err
				}
				o.Promote(&cur)
				lsn := tx.LogCLR(t.store.Pool.StoreID, uint64(cur.PID()), KindRemoveVersion, encVersionRef(e.Key, e.Start), rec.LSN)
				cur.N.removeVersion(e.Key, e.Start)
				if repaired {
					lsn = tx.LogCLR(t.store.Pool.StoreID, uint64(cur.PID()), KindPut, encPut(repair), rec.LSN)
					cur.N.insertVersion(repair)
				}
				cur.F.MarkDirty(lsn)
			}
			if cur.N.Rect.TimeLow <= e.Start || cur.N.HistSib == storage.NilPage {
				break
			}
			hist := cur.N.HistSib
			next, err := o.Step(&cur, hist, latch.U, 0)
			if err != nil {
				return err
			}
			cur = next
		}
		o.Release(&cur)
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
	if e.Start >= cur.N.Rect.TimeLow || cur.N.HistSib == storage.NilPage {
		return Entry{}, false, nil
	}
	lo, hi := keyGroup(cur.N, e.Key)
	for i := lo; i < hi; i++ {
		if cur.N.Entries[i].Start < cur.N.Rect.TimeLow && cur.N.Entries[i].Start != e.Start {
			return Entry{}, false, nil // another below-TimeLow copy remains
		}
	}
	var prev nref
	for pid := cur.N.HistSib; pid != storage.NilPage; {
		h, err := o.Acquire(pid, latch.S, 0)
		o.Release(&prev) // no-op on the first edge: cur itself stays held
		if err != nil {
			return Entry{}, false, err
		}
		lo, hi := keyGroup(h.N, e.Key)
		for i := hi - 1; i >= lo; i-- {
			if h.N.Entries[i].Start < e.Start {
				out := cloneEntry(h.N.Entries[i])
				o.Release(&h)
				return out, true, nil
			}
		}
		if hi == lo || h.N.Entries[lo].Start >= h.N.Rect.TimeLow {
			o.Release(&h)
			return Entry{}, false, nil
		}
		pid = h.N.HistSib
		prev = h
	}
	o.Release(&prev)
	return Entry{}, false, nil
}
