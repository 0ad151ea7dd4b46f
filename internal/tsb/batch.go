package tsb

import (
	"errors"

	"repro/internal/keys"
	"repro/internal/latch"
	"repro/internal/lock"
	"repro/internal/pitree"
	"repro/internal/txn"
	"repro/internal/wal"
)

// FPBatchApply is the failpoint probed in the batched write path after a
// run's locks are granted but before anything is logged or applied (same
// name and placement as the core tree's, so one torture round covers
// both).
const FPBatchApply = "core.batchapply"

var errBatchArgs = errors.New("tsb: batch argument slices have different lengths")

// MultiPut writes a new version of every ks[i] with vals[i], grouped into
// leaf-runs: one descent, one latch hold, one lock-manager interaction,
// and one group append of the run's KindPut records per distinct current
// leaf. Each version still gets its own strictly-increasing timestamp and
// its own log record, so time splits, logical undo, and snapshot
// visibility are untouched. ks need not be sorted.
func (t *Tree) MultiPut(tx *txn.Txn, ks []keys.Key, vals [][]byte) error {
	if len(vals) != len(ks) {
		return errBatchArgs
	}
	return t.batchPut(tx, ks, vals, false)
}

// MultiDelete writes a tombstone version of every key, batched like
// MultiPut; as-of reads at earlier times still see the old versions.
func (t *Tree) MultiDelete(tx *txn.Txn, ks []keys.Key) error {
	return t.batchPut(tx, ks, nil, true)
}

func (t *Tree) batchPut(tx *txn.Txn, ks []keys.Key, vals [][]byte, deleted bool) error {
	return t.pi.EachRun(ks, func(sc *pitree.Batch, pos *int) error {
		return t.putRun(tx, ks, vals, deleted, sc, pos)
	})
}

// putRun applies one leaf-run of a batched put; see the core tree's
// mutateRun for the shape. The run stops early when the leaf fills; the
// remainder re-descends and splits first.
func (t *Tree) putRun(tx *txn.Txn, ks []keys.Key, vals [][]byte, deleted bool, sc *pitree.Batch, pos *int) error {
	o := t.pi.NewOp(tx)
	defer o.Done()
	leaf, err := t.descend(o, ks[sc.Idx[*pos]], NoEnd-1, 0, latch.U, true)
	if err != nil {
		return err
	}
	if !leaf.N.Current() {
		o.Release(&leaf)
		return pitree.ErrRetry
	}
	end := sc.RunEnd(ks, *pos, leaf.N.Rect.ContainsKey)
	run := sc.Idx[*pos:end]

	if err := o.LockRun(&leaf, sc, t.lockSpace, ks, run, lock.X); err != nil {
		return err
	}

	if len(leaf.N.Entries) >= t.opts.DataCapacity {
		if err := t.splitData(o, &leaf); err != nil {
			return err
		}
		return pitree.ErrRetry
	}

	lg := tx
	if lg == nil {
		lg = t.tm.BeginAtomicAction()
	}

	// Crash/fault point between runs (nothing logged or applied yet).
	if err := t.store.Pool.Probe(FPBatchApply); err != nil {
		if tx == nil {
			_ = lg.Abort()
		}
		o.Release(&leaf)
		return err
	}

	o.Promote(&leaf)
	var writer wal.TxnID
	if tx != nil {
		writer = tx.ID
	}
	ups := sc.Ups[:0]
	applied := 0
	for _, i := range run {
		if len(leaf.N.Entries) >= t.opts.DataCapacity {
			break // leaf filled mid-run; the rest re-descends and splits
		}
		var value []byte
		if !deleted {
			value = vals[i]
		}
		e := Entry{Key: keys.Clone(ks[i]), Start: t.tick(), Value: append([]byte(nil), value...), Deleted: deleted, Txn: writer}
		ups = append(ups, txn.GroupUpdate{Kind: KindPut, Payload: encPut(e)})
		leaf.N.insertVersion(e)
		t.Stats.Puts.Add(1)
		applied++
	}
	sc.Ups = ups
	o.LogRun(lg, &leaf, ups)
	t.Stats.BatchOps.Add(1)
	t.Stats.LeafVisitsSaved.Add(int64(applied - 1))
	if tx == nil {
		if cerr := lg.Commit(); cerr != nil {
			o.Release(&leaf)
			return cerr
		}
	}
	o.Release(&leaf)
	*pos += applied
	return nil
}

// MultiGet looks up the current value of a batch of keys with one descent
// and one latch hold per distinct current leaf. found[i] and vals[i]
// report ks[i]; values are appended to vals[i][:0] so reused slices pay
// no per-hit allocation. With a non-nil transaction each run's record S
// locks are taken in a single lock-manager interaction.
func (t *Tree) MultiGet(tx *txn.Txn, ks []keys.Key, vals [][]byte, found []bool) error {
	if len(vals) != len(ks) || len(found) != len(ks) {
		return errBatchArgs
	}
	t.Stats.Gets.Add(int64(len(ks)))
	return t.pi.EachRun(ks, func(sc *pitree.Batch, pos *int) error {
		o := t.pi.NewOp(tx)
		defer o.Done()
		leaf, err := t.descend(o, ks[sc.Idx[*pos]], NoEnd-1, 0, latch.S, true)
		if err != nil {
			return err
		}
		end := sc.RunEnd(ks, *pos, leaf.N.Rect.ContainsKey)
		run := sc.Idx[*pos:end]
		if err := o.LockRun(&leaf, sc, t.lockSpace, ks, run, lock.S); err != nil {
			return err
		}
		now := t.Now()
		for _, i := range run {
			if j, ok := leaf.N.searchVersion(ks[i], now); ok && !leaf.N.Entries[j].Deleted {
				vals[i] = append(vals[i][:0], leaf.N.Entries[j].Value...)
				found[i] = true
			} else {
				found[i] = false
			}
		}
		o.Release(&leaf)
		t.Stats.BatchOps.Add(1)
		t.Stats.LeafVisitsSaved.Add(int64(len(run) - 1))
		*pos = end
		return nil
	})
}
