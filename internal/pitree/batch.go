package pitree

import (
	"sync"

	"repro/internal/keys"
	"repro/internal/lock"
	"repro/internal/txn"
)

// Batch is the working storage of one vectorized call (MultiGet,
// MultiPut, MultiDelete): the key permutation in sorted order, the
// current run's lock names, and its group-update records. Pooled, so a
// steady stream of batches allocates nothing.
type Batch struct {
	Idx   []int
	Names []lock.Name
	Ups   []txn.GroupUpdate
}

var batchPool sync.Pool

// TakeBatch returns a pooled Batch whose Idx orders ks by key.
func TakeBatch(ks []keys.Key) *Batch {
	b, _ := batchPool.Get().(*Batch)
	if b == nil {
		b = new(Batch)
	}
	if cap(b.Idx) < len(ks) {
		b.Idx = make([]int, len(ks))
	}
	b.Idx = b.Idx[:len(ks)]
	for i := range b.Idx {
		b.Idx[i] = i
	}
	sortIdx(b.Idx, ks)
	return b
}

// Release returns b to the pool; the caller must not use it afterwards.
func (b *Batch) Release() {
	clear(b.Ups) // drop payload references
	b.Ups = b.Ups[:0]
	batchPool.Put(b)
}

// EachRun applies a vectorized call run by run in sorted key order: run
// applies the leaf-run that starts at sorted position *pos of b and
// advances *pos past what it applied; an ErrRetry from it re-runs it.
func (t *Tree[N, K]) EachRun(ks []keys.Key, run func(b *Batch, pos *int) error) error {
	if len(ks) == 0 {
		return nil
	}
	b := TakeBatch(ks)
	defer b.Release()
	for pos := 0; pos < len(ks); {
		if err := t.Retry(func() error { return run(b, &pos) }); err != nil {
			return err
		}
	}
	return nil
}

// LogRun appends a leaf-run's records under act as one group and marks
// the leaf dirty. Both marks matter: the first publishes a recLSN
// covering the whole run if the page was clean, the second advances the
// pageLSN to the run's last record.
func (o *Op[N, K]) LogRun(act *txn.Txn, leaf *Ref[N], ups []txn.GroupUpdate) {
	if len(ups) > 0 {
		first, last := act.LogUpdateGroup(o.t.Pool.StoreID, uint64(leaf.PID()), ups)
		leaf.F.MarkDirty(first)
		leaf.F.MarkDirty(last)
	}
}

// sortIdx sorts the index permutation by key. Insertion sort: the batch
// sizes this path is built for are modest, and sort.Slice's closure is a
// heap allocation the zero-allocation MultiGet path cannot afford.
func sortIdx(idx []int, ks []keys.Key) {
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && keys.Compare(ks[idx[j-1]], ks[idx[j]]) > 0; j-- {
			idx[j-1], idx[j] = idx[j], idx[j-1]
		}
	}
}

// RunEnd extends the leaf-run starting at sorted position pos over every
// following key the leaf directly contains (sorted order makes the
// containable suffix contiguous) and returns the end of the run.
func (b *Batch) RunEnd(ks []keys.Key, pos int, contains func(keys.Key) bool) int {
	end := pos + 1
	for end < len(b.Idx) && contains(ks[b.Idx[end]]) {
		end++
	}
	return end
}

// LockRun takes the run's record locks (lock.KeyName in space) in one
// lock-manager interaction. It returns ErrRetry after a No-Wait dance
// (latch released, blocking acquisition of the conflicting name, run
// restarted) and nil when every lock is held with the latch kept. Every
// batch locks its keys in sorted order, so two batches' acquisition orders
// agree and batch-vs-batch deadlocks cannot arise from these locks alone;
// a conflict with a single-key writer falls back to the blocking path,
// where the waits-for detector remains the backstop.
func (o *Op[N, K]) LockRun(leaf *Ref[N], b *Batch, space uint32, ks []keys.Key, run []int, mode lock.Mode) error {
	if o.Txn == nil {
		return nil
	}
	b.Names = b.Names[:0]
	for _, i := range run {
		b.Names = append(b.Names, lock.KeyName(space, ks[i]))
	}
	fail := o.Txn.TryLockBatch(b.Names, mode)
	if fail < 0 {
		return nil
	}
	o.Release(leaf)
	if err := o.Txn.Lock(b.Names[fail], mode); err != nil {
		return err
	}
	return ErrRetry
}
