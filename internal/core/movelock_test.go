package core

import (
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/keys"
	"repro/internal/storage"
	"repro/internal/wal"
)

// TestRecordMoveLocksBlockSplit exercises the record-set realization of
// the move lock (§4.2.2): a transaction holding an undoable update on a
// record that a split would move must block the (independent) split
// until it finishes.
func TestRecordMoveLocksBlockSplit(t *testing.T) {
	opts := defaultTestOpts()
	opts.RecordMoveLocks = true
	opts.LeafCapacity = 8
	fx := newFixture(t, engine.Options{PageOriented: true}, opts)

	// Fill one leaf to one-below capacity.
	for i := 0; i < 7; i++ {
		if err := fx.tree.Insert(nil, keys.Uint64(uint64(i*10)), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	// tx updates a record in the upper half (it will be "to be moved").
	tx := fx.e.TM.Begin()
	if err := fx.tree.Update(tx, keys.Uint64(60), []byte("pending")); err != nil {
		t.Fatal(err)
	}

	// An eighth insert fills the leaf; the ninth forces the split, whose
	// record-granule move lock must wait for tx.
	if err := fx.tree.Insert(nil, keys.Uint64(5), val(99)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- fx.tree.Insert(nil, keys.Uint64(15), val(100))
	}()

	select {
	case err := <-done:
		t.Fatalf("split completed while the mover's record was update-locked (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
		// Blocked, as required.
	}
	if splits := fx.tree.Stats.LeafSplits.Load() + fx.tree.Stats.RootGrowths.Load(); splits != 0 {
		t.Fatalf("split happened under the move lock: %d", splits)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("insert after unblock: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("split never unblocked after the updater committed")
	}
	if fx.tree.Stats.MoveLockWaits.Load() == 0 {
		t.Fatal("no move-lock wait recorded")
	}
	if fx.tree.Stats.LeafSplits.Load()+fx.tree.Stats.RootGrowths.Load() == 0 {
		t.Fatal("split never happened")
	}
	fx.mustVerify(t)
}

// TestRecordMoveLocksCorrectness runs the transactional abort workload
// under the record-granule realization.
func TestRecordMoveLocksCorrectness(t *testing.T) {
	opts := defaultTestOpts()
	opts.RecordMoveLocks = true
	fx := newFixture(t, engine.Options{PageOriented: true}, opts)
	tx := fx.e.TM.Begin()
	for i := 0; i < 40; i++ {
		if err := fx.tree.Insert(tx, keys.Uint64(uint64(i)), val(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := fx.e.TM.Begin()
	for i := 40; i < 80; i++ {
		if err := fx.tree.Insert(tx2, keys.Uint64(uint64(i)), val(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
	shape := fx.mustVerify(t)
	if shape.Records != 40 {
		t.Fatalf("records = %d, want 40", shape.Records)
	}
	// Crash and recover under the same options.
	fx.e.Log.ForceAll()
	fx2 := fx.crashRestart(t, nil)
	shape2 := fx2.mustVerify(t)
	if shape2.Records != 40 {
		t.Fatalf("after restart: records = %d", shape2.Records)
	}
}

// TestAbortedInTxnSplitMarksSiblingDead: under CP a transaction abort
// undoes the transaction's own splits and frees their new pages. A
// traversal can still hold a pointer to such a page, read before the
// undo; once the abort drops its move locks that traversal would update
// an unreachable orphan and the committed change would be lost. The
// abort must leave every such page marked dead, so the traversal retries.
func TestAbortedInTxnSplitMarksSiblingDead(t *testing.T) {
	fx := newFixture(t, engine.Options{PageOriented: true}, Options{
		LeafCapacity: 8, IndexCapacity: 8, Consolidation: true, NoCompletion: true,
	})
	for i := 0; i < 40; i++ {
		if err := fx.tree.Insert(nil, keys.Uint64(uint64(i)), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	before := fx.tree.Stats.InTxnSplits.Load()
	tx := fx.e.TM.Begin()
	for i := 100; i < 120; i++ {
		if err := fx.tree.Insert(tx, keys.Uint64(uint64(i)), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if fx.tree.Stats.InTxnSplits.Load() == before {
		t.Fatal("workload made no in-transaction split")
	}
	var fresh []storage.PageID
	fx.e.Log.FullImage().Scan(wal.NilLSN, func(r wal.Record) bool {
		if r.TxnID == tx.ID && r.Type == wal.RecUpdate && r.Kind == KindFormatNode {
			fresh = append(fresh, storage.PageID(r.PageID))
		}
		return true
	})
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	for _, pid := range fresh {
		f, err := fx.tree.store.Pool.Fetch(pid)
		if err != nil {
			t.Fatal(err)
		}
		dead := f.Data.(*Node).Dead
		fx.tree.store.Pool.Unpin(f)
		if !dead {
			t.Fatalf("page %d of an aborted in-transaction split is not marked dead", pid)
		}
	}
	if shape := fx.mustVerify(t); shape.Records != 40 {
		t.Fatalf("records = %d after abort, want 40", shape.Records)
	}
}
