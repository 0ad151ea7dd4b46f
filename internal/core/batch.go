package core

import (
	"errors"

	"repro/internal/keys"
	"repro/internal/latch"
	"repro/internal/lock"
	"repro/internal/pitree"
	"repro/internal/txn"
)

// FPBatchApply is the failpoint probed in the batched write path after the
// run's locks are granted but before anything is logged or applied, so an
// injected crash lands exactly between two leaf-runs of one batch: some
// runs fully logged and applied, the rest never started. Recovery must
// resolve that to the per-record oracle — there is no batch-granule
// atomicity to restore.
const FPBatchApply = "core.batchapply"

// errBatchArgs reports mismatched parallel-slice lengths.
var errBatchArgs = errors.New("core: batch argument slices have different lengths")

// MultiGet looks up a batch of keys with one descent and one latch hold
// per distinct leaf. found[i] and vals[i] report key ks[i]; each value is
// appended to vals[i][:0], so callers reusing the slices across batches
// pay no per-hit allocation. With a non-nil transaction the whole run is
// S-locked in a single lock-manager interaction. ks need not be sorted.
func (t *Tree) MultiGet(tx *txn.Txn, ks []keys.Key, vals [][]byte, found []bool) error {
	if len(vals) != len(ks) || len(found) != len(ks) {
		return errBatchArgs
	}
	if len(ks) == 0 {
		return nil
	}
	t.Stats.Searches.Add(int64(len(ks)))
	sc := pitree.TakeBatch(ks)
	// Hand-rolled retry loop, like SearchInto: a t.pi.Retry closure would
	// capture the slices and allocate on every batch.
	pos := 0
	for pos < len(ks) {
		o := t.pi.NewOp(tx)
		leaf, err := t.pi.Descend(o, ks[sc.Idx[pos]], 0, latch.S, true, nil)
		if err == nil {
			end := sc.RunEnd(ks, pos, leaf.N.DirectlyContains)
			run := sc.Idx[pos:end]
			err = o.LockRun(&leaf, sc, t.lockSpace, ks, run, lock.S)
			if err == nil {
				for _, i := range run {
					if j, ok := leaf.N.search(ks[i]); ok {
						vals[i] = append(vals[i][:0], leaf.N.Entries[j].Value...)
						found[i] = true
					} else {
						found[i] = false
					}
				}
				o.Release(&leaf)
				t.Stats.BatchOps.Add(1)
				t.Stats.LeafVisitsSaved.Add(int64(len(run) - 1))
				pos = end
			}
		}
		o.Done()
		if err != nil {
			if errors.Is(err, pitree.ErrRetry) {
				t.Stats.Restarts.Add(1)
				continue
			}
			sc.Release()
			return err
		}
	}
	sc.Release()
	return nil
}

// MultiPut upserts a batch of key/value pairs: ks[i] gets vals[i],
// inserting or replacing as needed. Keys are processed in sorted order,
// grouped into leaf-runs: each distinct target leaf costs one descent,
// one latch hold, one lock-manager interaction, and one group append of
// the run's per-key WAL records. Undo and redo stay per-record, so a
// crash mid-batch recovers each logged record independently — committed
// runs stay, the rest never happened. ks need not be sorted; duplicate
// keys apply in batch order.
func (t *Tree) MultiPut(tx *txn.Txn, ks []keys.Key, vals [][]byte) error {
	if len(vals) != len(ks) {
		return errBatchArgs
	}
	return t.batchMutate(tx, ks, vals, false)
}

// MultiDelete removes a batch of keys, grouped into leaf-runs like
// MultiPut. Keys not present are skipped, not errors: the batch's
// postcondition is absence.
func (t *Tree) MultiDelete(tx *txn.Txn, ks []keys.Key) error {
	return t.batchMutate(tx, ks, nil, true)
}

func (t *Tree) batchMutate(tx *txn.Txn, ks []keys.Key, vals [][]byte, del bool) error {
	return t.pi.EachRun(ks, func(sc *pitree.Batch, pos *int) error {
		return t.mutateRun(tx, ks, vals, del, sc, pos)
	})
}

// mutateRun applies one leaf-run: descend with a U latch to the leaf
// containing the first unprocessed key, extend the run across every batch
// key that leaf directly contains, lock the run, and apply it under a
// single X latch with the run's log records emitted as one group append.
// On success pos advances past the applied keys; pitree.ErrRetry re-enters with
// pos unchanged (or advanced past a partial run when the leaf filled
// mid-run, with the remainder re-descending into the post-split leaves).
func (t *Tree) mutateRun(tx *txn.Txn, ks []keys.Key, vals [][]byte, del bool, sc *pitree.Batch, pos *int) error {
	o := t.pi.NewOp(tx)
	defer o.Done()
	path := pitree.NewPath()
	leaf, err := t.pi.Descend(o, ks[sc.Idx[*pos]], 0, latch.U, true, path)
	if err != nil {
		return err
	}
	end := sc.RunEnd(ks, *pos, leaf.N.DirectlyContains)
	run := sc.Idx[*pos:end]

	if err := o.LockRun(&leaf, sc, t.lockSpace, ks, run, lock.X); err != nil {
		return err
	}

	if len(leaf.N.Entries) >= t.opts.LeafCapacity {
		if err := t.splitLeaf(o, &leaf, path); err != nil {
			return err
		}
		return pitree.ErrRetry
	}

	// Page-granule IX lock, as in modify: marks this transaction as an
	// updater of the leaf for later move locks to wait on.
	if tx != nil && t.binding.PageOriented() {
		if err := o.LockDance(&leaf, t.pageLockName(leaf.PID()), lock.IX); err != nil {
			return err
		}
	}

	act := tx
	var aa *txn.Txn
	if act == nil {
		aa = t.tm.BeginAtomicAction()
		act = aa
	}

	// Crash/fault point between runs: nothing of this run is logged or
	// applied yet, so an injected failure here leaves a cleanly partial
	// batch for recovery to judge per record.
	if err := t.store.Pool.Probe(FPBatchApply); err != nil {
		if aa != nil {
			_ = aa.Abort() // nothing logged; empty abort keeps the log tidy
		}
		o.Release(&leaf)
		return err
	}

	o.Promote(&leaf)
	oldCount := len(leaf.N.Entries)
	ups := sc.Ups[:0]
	applied := 0
	for _, i := range run {
		k := ks[i]
		if del {
			j, exists := leaf.N.search(k)
			if exists {
				old := leaf.N.Entries[j].Value
				ups = append(ups, txn.GroupUpdate{Kind: KindDeleteRecord, Payload: encKV(k, old)})
				leaf.N.deleteEntry(k)
				t.Stats.Deletes.Add(1)
			}
		} else if j, exists := leaf.N.search(k); exists {
			old := leaf.N.Entries[j].Value
			ups = append(ups, txn.GroupUpdate{Kind: KindUpdateRecord, Payload: encKVV(k, vals[i], old)})
			leaf.N.Entries[j].Value = append([]byte(nil), vals[i]...)
			t.Stats.Updates.Add(1)
		} else {
			if len(leaf.N.Entries) >= t.opts.LeafCapacity {
				// The leaf filled mid-run. Stop here: the applied prefix is
				// logged below, and the remainder restarts with a fresh
				// descent that splits this leaf first.
				break
			}
			ups = append(ups, txn.GroupUpdate{Kind: KindInsertRecord, Payload: encKV(k, vals[i])})
			leaf.N.insertEntry(Entry{Key: keys.Clone(k), Value: append([]byte(nil), vals[i]...)})
			t.Stats.Inserts.Add(1)
		}
		applied++
	}
	sc.Ups = ups
	o.LogRun(act, &leaf, ups)
	t.Stats.NoteLeafUtil(oldCount, len(leaf.N.Entries), t.opts.LeafCapacity)
	t.Stats.BatchOps.Add(1)
	t.Stats.LeafVisitsSaved.Add(int64(applied - 1))
	// Commit before unlatching, as in modify: the atomic action's effects
	// must be durable-ordered before any dependent action can observe them.
	if aa != nil {
		if cerr := aa.Commit(); cerr != nil {
			o.Release(&leaf)
			return cerr
		}
	}
	if del {
		t.maybeScheduleConsolidation(&leaf)
	}
	o.Release(&leaf)
	*pos += applied
	return nil
}
