// Package pitree holds the Π-tree protocol once for every node space
// (Lomet & Salzberg §2–§5): a node is responsible for a space and
// delegates parts of it to siblings, so a search reaches the node that
// directly contains its target by descending through index terms and
// walking side pointers. The B-link tree (internal/core), the TSB tree
// (internal/tsb) and the hB-style multi-attribute tree (internal/spatial)
// supply only what differs between their spaces — how a node routes a
// search target (Space) — plus their own structure changes; the latch
// context, the latched and optimistic descents, the saved path, the
// completion queue and the leaf-run batch helpers live here.
//
// One rule separates the trees' traversals: whether a node can be freed.
// Tree.Mortal is derived from each tree's own options (core's
// Consolidation, tsb's and spatial's Reclaim). A mortal tree latch-couples
// every step and re-validates the source of every optimistic edge, so a
// saved pointer is never followed to a freed or recycled page; an
// immortal (CNS, §5.2.1) tree holds one latch at a time and trusts every
// pointer it has read.
package pitree

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/latch"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// ErrRetry restarts an operation from its descent; Tree.Retry consumes
// it, so it never escapes a tree's public API.
var ErrRetry = errors.New("pitree: internal retry")

// ErrLevelGone reports a descent target level above the current root: the
// completing action that wanted it is obsolete until the root grows, and
// side traversals will reschedule it.
var ErrLevelGone = errors.New("pitree: target level does not exist")

// MaxLevel bounds tree height for latch-rank arithmetic.
const MaxLevel = 63

// Step is a node's routing decision for one search target.
type Step uint8

const (
	// Retry: the target cannot be reached from this node (it lies below
	// the node's space, or the delegating pointer is missing); the
	// structure changed under the descent, which restarts.
	Retry Step = iota
	// Here: the node directly contains the target and is at the target
	// level.
	Here
	// Sibling: the node delegated the target's part of its space to the
	// same-level node at the returned page.
	Sibling
	// Child: the node directly contains the target and the returned page
	// is the child whose space holds it.
	Child
)

// Space is what one node space supplies to the protocol. N is the tree's
// decoded node type (a pointer); K is its search target.
type Space[N, K any] interface {
	// Level is n's level; data nodes are level 0.
	Level(n N) int
	// Route decides where k goes from n. down reports that the descent
	// has not reached its target level, so a directly containing node
	// must answer with its Child rather than Here.
	Route(n N, k K, down bool) (Step, storage.PageID)
	// Dead reports a node marked de-allocated (reachable only through a
	// pointer read before the de-allocating action committed).
	Dead(n N) bool
	// Clone returns an immutable deep copy of n for publication as an
	// optimistic navigation snapshot.
	Clone(n N) N
	// Crossed is the side-walk note hook, called once for every sibling
	// step a descent takes from n (at page pid) toward k: it counts the
	// walk and, when sched is set, schedules the completing action for
	// the intermediate state the walk revealed (§5.1). path is the
	// descent's saved path, or nil.
	Crossed(n N, pid storage.PageID, k K, path *Path, sched bool)
}

// Counters are the tree's own statistics words the protocol maintains.
type Counters struct {
	// OptHits counts interior-node visits served from a validated
	// snapshot, OptRetries snapshot refreshes and failed validations,
	// OptFallbacks whole descents abandoned to the latched path.
	OptHits, OptRetries, OptFallbacks *atomic.Int64
	// Restarts counts operation-level retries.
	Restarts *atomic.Int64
}

// Capacity normalizes a configured node capacity in entries: 64 when
// unset, and never below 4, so a split leaves both halves non-empty.
func Capacity(n int) int {
	switch {
	case n <= 0:
		return 64
	case n < 4:
		return 4
	}
	return n
}

// Workers normalizes a configured completion worker count: 2 when unset.
func Workers(n int) int {
	if n <= 0 {
		return 2
	}
	return n
}

// Tree is the node-space-independent state of one Π-tree. Fill the
// exported fields once, before first use.
type Tree[N, K any] struct {
	Space Space[N, K]
	Pool  *storage.Pool
	// Root is the root's page, fixed for the tree's lifetime; the root
	// node is never de-allocated.
	Root storage.PageID
	// Name prefixes the protocol's error messages ("core", "tsb", ...).
	Name string
	// Mortal is the mortality rule (see the package comment).
	Mortal bool
	// Pessimistic disables the optimistic interior descent.
	Pessimistic bool
	// CheckLatchOrder enables per-operation latch order assertions.
	CheckLatchOrder bool
	// IndexHold, when set, records hold durations of U and X latches on
	// index nodes (levels >= 1).
	IndexHold *latch.HoldTimer
	Counters

	// rootf caches the root's frame with one permanent pin (see
	// rootFrame).
	rootf atomic.Pointer[storage.Frame]
	// ops recycles operation contexts; see NewOp and Op.Done.
	ops sync.Pool
}

// Create makes a new tree's initial nodes in one atomic action and records
// the tree under name in store: it bootstraps the store's meta page if
// this is its first tree, allocates one page per node, formats build's
// nodes (built around the allocated pages; the first page is the root's)
// as kind records with image's encoding, children before the root, and
// commits. On failure the action is aborted, so it neither stays open
// nor keeps the pages it allocated.
func (t *Tree[N, K]) Create(tm *txn.Manager, store *storage.Store, name string, nodes int, kind wal.Kind, image func(N) []byte, build func(pids []storage.PageID) []N) (err error) {
	aa := tm.BeginAtomicAction()
	o := t.NewOp(aa)
	defer o.Done()
	defer func() {
		if err != nil {
			_ = aa.Abort()
		}
	}()
	if f, err := store.Pool.Fetch(storage.MetaPage); err == nil {
		store.Pool.Unpin(f)
	} else if !errors.Is(err, storage.ErrPageNotFound) {
		return err
	} else if err := store.Bootstrap(aa); err != nil {
		return err
	}
	pids := make([]storage.PageID, nodes)
	for i := range pids {
		pid, err := store.Alloc(aa, &o.Tr)
		if err != nil {
			return err
		}
		pids[i] = pid
	}
	ns := build(pids)
	for i := len(ns) - 1; i >= 0; i-- {
		if err := o.Format(aa, pids[i], t.Space.Level(ns[i]), ns[i], kind, image(ns[i])); err != nil {
			return err
		}
	}
	if err := store.SetRoot(aa, &o.Tr, name, pids[0]); err != nil {
		return err
	}
	if err := aa.Commit(); err != nil {
		return err
	}
	t.Root = pids[0]
	return nil
}

// rootFrame returns the root's frame, pinned for the caller. The first
// call fetches it and keeps one extra permanent pin; later calls re-pin
// the cached frame (safe: the permanent pin keeps the count non-zero, see
// Frame.Pin). The root page is fixed and never de-allocated, so the cache
// never goes stale, and the hottest fetch of every descent is one atomic
// load instead of a page-table lookup.
func (t *Tree[N, K]) rootFrame() (*storage.Frame, error) {
	if f := t.rootf.Load(); f != nil {
		f.Pin()
		return f, nil
	}
	f, err := t.Pool.Fetch(t.Root)
	if err != nil {
		return nil, err
	}
	if !t.rootf.CompareAndSwap(nil, f) {
		// Lost the race to cache; the winner cached the same frame (one
		// page maps to one buffered frame), and our fetch pin is the
		// caller's.
		return f, nil
	}
	f.Pin()
	return f, nil
}

// Close drops the cached root pin. A straggling operation may briefly
// re-cache it; the pin is process-local bookkeeping, so that is harmless.
func (t *Tree[N, K]) Close() {
	if f := t.rootf.Swap(nil); f != nil {
		t.Pool.Unpin(f)
	}
}

// Retry runs fn until it succeeds or fails with anything but ErrRetry,
// counting each restart.
func (t *Tree[N, K]) Retry(fn func() error) error {
	for {
		err := fn()
		if !errors.Is(err, ErrRetry) {
			return err
		}
		t.Restarts.Add(1)
	}
}

// Peek returns the node on page pid without latching it, adding pid to
// reachable when that is non-nil. Only quiescent verifiers may use it: no
// latch protects what it reads.
func (t *Tree[N, K]) Peek(pid storage.PageID, reachable map[storage.PageID]bool) (N, error) {
	f, err := t.Pool.Fetch(pid)
	if err != nil {
		var n N
		return n, err
	}
	defer t.Pool.Unpin(f)
	n, err := NodeOf[N](f, t.Name)
	if err == nil && reachable != nil {
		reachable[pid] = true
	}
	return n, err
}

// PathEntry remembers a traversed node and its state identifier at visit
// time.
type PathEntry struct {
	PID storage.PageID
	LSN wal.LSN
}

// Path is a remembered root-to-target path indexed by level (§5.2: the
// search key, the nodes on the path, and their state identifiers). A nil
// *Path records nothing.
type Path struct {
	byLevel map[int]PathEntry
}

// NewPath returns an empty path.
func NewPath() *Path { return &Path{byLevel: make(map[int]PathEntry)} }

// Set records pid, at state lsn, as the path's node at level.
func (p *Path) Set(level int, pid storage.PageID, lsn wal.LSN) {
	if p != nil {
		p.byLevel[level] = PathEntry{PID: pid, LSN: lsn}
	}
}

// Get returns the path's node at level.
func (p *Path) Get(level int) (PathEntry, bool) {
	if p == nil {
		return PathEntry{}, false
	}
	e, ok := p.byLevel[level]
	return e, ok
}

// Clone returns an independent copy of p; a nil p clones to an empty
// path.
func (p *Path) Clone() *Path {
	c := NewPath()
	if p != nil {
		for l, e := range p.byLevel {
			c.byLevel[l] = e
		}
	}
	return c
}

// NewOp checks out a pooled operation context for tx (nil for work
// outside any transaction); Done returns it.
func (t *Tree[N, K]) NewOp(tx *txn.Txn) *Op[N, K] {
	o, _ := t.ops.Get().(*Op[N, K])
	if o == nil {
		o = &Op[N, K]{t: t}
	}
	o.Txn = tx
	o.seq = 0
	o.Tr.Reset(t.CheckLatchOrder)
	return o
}
