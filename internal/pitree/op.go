package pitree

import (
	"fmt"
	"time"

	"repro/internal/latch"
	"repro/internal/lock"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Op carries one operation's latch-order state. Ranks are derived from
// the tree level (parents before children) plus a per-operation sequence
// number (containing nodes before contained nodes along a side chain).
// Contexts are pooled per tree: obtain one with Tree.NewOp and return it
// with Done, which also asserts no latch leaked.
type Op[N, K any] struct {
	t *Tree[N, K]
	// Txn is the operation's transaction; nil for plain reads and
	// completing actions outside any transaction.
	Txn *txn.Txn
	// Tr tracks the latches the operation holds.
	Tr  latch.Tracker
	seq uint64
}

// Ref is a pinned, latched node reference.
type Ref[N any] struct {
	F    *storage.Frame
	N    N
	Mode latch.Mode
	// since is set for instrumented index-node holds (Tree.IndexHold).
	since time.Time
}

// PID returns the referenced node's page.
func (r *Ref[N]) PID() storage.PageID { return r.F.ID }

// Done asserts the operation released everything and returns the
// context to its tree's pool. Callers must not touch o afterwards.
func (o *Op[N, K]) Done() {
	o.Tr.AssertNoneHeld()
	o.Txn = nil
	o.t.ops.Put(o)
}

// Rank returns the next latch rank for a node at level.
func (o *Op[N, K]) Rank(level int) latch.Rank {
	o.seq++
	return latch.Rank(uint64(MaxLevel-level)<<40 | (o.seq & (1<<40 - 1)))
}

// Acquire pins and latches pid in mode.
func (o *Op[N, K]) Acquire(pid storage.PageID, mode latch.Mode, level int) (Ref[N], error) {
	t := o.t
	f, err := t.Pool.Fetch(pid)
	if err != nil {
		return Ref[N]{}, err
	}
	f.Latch.Acquire(mode)
	o.Tr.Acquired(&f.Latch, o.Rank(level), mode)
	n, ok := f.Data.(N)
	if !ok {
		o.Tr.Released(&f.Latch)
		f.Latch.Release(mode)
		t.Pool.Unpin(f)
		return Ref[N]{}, fmt.Errorf("%s: page %d holds %T, not a node", t.Name, pid, f.Data)
	}
	r := Ref[N]{F: f, N: n, Mode: mode}
	if t.IndexHold != nil && level >= 1 && mode != latch.S {
		r.since = time.Now()
	}
	return r, nil
}

// Release unlatches and unpins r; a released (zero) r is a no-op.
func (o *Op[N, K]) Release(r *Ref[N]) {
	if r.F == nil {
		return
	}
	if !r.since.IsZero() {
		o.t.IndexHold.Observe(time.Since(r.since))
	}
	o.Tr.Released(&r.F.Latch)
	r.F.Latch.Release(r.Mode)
	o.t.Pool.Unpin(r.F)
	*r = Ref[N]{}
}

// Promote upgrades r from U to X, honoring the §4.1.1 promotion rule.
func (o *Op[N, K]) Promote(r *Ref[N]) {
	if r.Mode != latch.U {
		panic(o.t.Name + ": promote of non-U reference")
	}
	r.F.Latch.Promote()
	o.Tr.Promoted(&r.F.Latch)
	r.Mode = latch.X
}

// Step moves from *cur to pid under the mortality rule. A mortal tree
// latch-couples — the target is latched before cur is released, so the
// action freeing a node, which removes its last reference under the
// referencing node's X latch first, cannot free it between the pointer
// read and the acquire — and retries from the root on landing on a node
// marked dead. An immortal tree releases cur first ("only one latch at a
// time", §5.2.1).
func (o *Op[N, K]) Step(cur *Ref[N], pid storage.PageID, mode latch.Mode, level int) (Ref[N], error) {
	if !o.t.Mortal {
		o.Release(cur)
		return o.Acquire(pid, mode, level)
	}
	next, err := o.Acquire(pid, mode, level)
	o.Release(cur)
	if err != nil {
		return Ref[N]{}, err
	}
	if o.t.Space.Dead(next.N) {
		o.Release(&next)
		return Ref[N]{}, ErrRetry
	}
	return next, nil
}

// Action is an atomic action that retains every latch it takes until it
// ends (§5.3: a completing action releases its latches only at its end),
// so no concurrent action can observe, and build on, an uncommitted
// intermediate of it. It tracks the caller's current node and the nodes
// the action moved on from.
type Action[N, K any] struct {
	o    *Op[N, K]
	Txn  *txn.Txn
	node *Ref[N]
	held []Ref[N]
}

// Begin starts an atomic action that updates *node: the U-latched node is
// promoted to X (safe: the promotion rule holds while it is the only
// latch held).
func (o *Op[N, K]) Begin(aa *txn.Txn, node *Ref[N]) *Action[N, K] {
	o.Promote(node)
	return &Action[N, K]{o: o, Txn: aa, node: node}
}

// MoveTo makes next, X-latched, the action's current node, retaining the
// previous one to the action's end.
func (a *Action[N, K]) MoveTo(next Ref[N]) {
	a.held = append(a.held, *a.node)
	*a.node = next
}

// Commit commits the action and then releases its latches.
func (a *Action[N, K]) Commit() error {
	err := a.Txn.Commit()
	a.release()
	return err
}

// Abort releases the action's latches, abandons it, and returns err.
func (a *Action[N, K]) Abort(err error) error {
	a.release()
	_ = a.Txn.Abort()
	return err
}

func (a *Action[N, K]) release() {
	a.o.Release(a.node)
	for i := len(a.held) - 1; i >= 0; i-- {
		a.o.Release(&a.held[i])
	}
	a.held = nil
}

// Format creates page pid holding the new node n: with the frame
// X-latched (and tracked at level), n's image is logged under act as a
// kind record and installed.
func (o *Op[N, K]) Format(act storage.UpdateLogger, pid storage.PageID, level int, n N, kind wal.Kind, image []byte) error {
	pool := o.t.Pool
	f, err := pool.Create(pid)
	if err != nil {
		return err
	}
	f.Latch.AcquireX()
	o.Tr.Acquired(&f.Latch, o.Rank(level), latch.X)
	lsn := act.LogUpdate(pool.StoreID, uint64(pid), kind, image)
	f.Data = n
	f.MarkDirty(lsn)
	o.Tr.Released(&f.Latch)
	f.Latch.ReleaseX()
	pool.Unpin(f)
	return nil
}

// LockDance acquires a database lock for the operation's transaction under
// the No-Wait rule (§4.1.2): a free lock is taken without waiting and nil
// returned with the latch kept; otherwise the node latch r is released
// before blocking, and ErrRetry returned once the lock is granted (it
// stays held, so the restarted operation's TryLock succeeds at once).
// Without a transaction it does nothing.
func (o *Op[N, K]) LockDance(r *Ref[N], name lock.Name, mode lock.Mode) error {
	if o.Txn == nil || o.Txn.TryLock(name, mode) {
		return nil
	}
	o.Release(r)
	if err := o.Txn.Lock(name, mode); err != nil {
		return err
	}
	return ErrRetry
}
