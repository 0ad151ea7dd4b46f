package lock

import (
	"errors"
	"testing"
	"time"

	"repro/internal/wal"
)

// lockAsync runs LockDepFor on its own goroutine and returns the channel
// its result arrives on.
func lockAsync(m *Manager, txn, parent wal.TxnID, name Name, mode Mode) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, err := m.LockDepFor(txn, parent, name, mode)
		done <- err
	}()
	return done
}

// result waits for a lockAsync outcome, failing the test instead of
// hanging when the request never returns.
func result(t *testing.T, done <-chan error, who string) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: lock request never returned (undetected deadlock or lost wakeup)", who)
		return nil
	}
}

// TestReleasedBlockerLeavesNoStaleEdge: a waiter whose blocker released
// the lock must stop waiting for it in the detector, or the released
// transaction's next wait on the waiter is refused as a deadlock that
// does not exist.
func TestReleasedBlockerLeavesNoStaleEdge(t *testing.T) {
	m := NewManager()
	a, b := nm("a"), nm("b")
	for _, g := range []struct {
		txn  wal.TxnID
		name Name
		mode Mode
	}{{2, a, S}, {3, a, S}, {1, b, X}} {
		if err := m.Lock(g.txn, g.name, g.mode); err != nil {
			t.Fatal(err)
		}
	}
	t1 := lockAsync(m, 1, wal.NilTxn, a, X) // waits for 2 and 3
	waitForWaiters(t, m, 1)

	m.ReleaseAll(2) // 1 now waits for 3 only
	t2 := lockAsync(m, 2, wal.NilTxn, b, S)
	waitForWaiters(t, m, 2)

	m.ReleaseAll(3)
	if err := result(t, t1, "txn 1"); err != nil {
		t.Fatalf("txn 1: %v", err)
	}
	m.ReleaseAll(1)
	if err := result(t, t2, "txn 2"); err != nil {
		t.Fatalf("txn 2 refused after its blocker released: %v", err)
	}
	m.ReleaseAll(2)
	if _, d := m.Stats(); d != 0 {
		t.Fatalf("deadlocks = %d, want 0", d)
	}
}

// TestUpgradeAtHeadRefreshEvictsVictim: an upgrade queued at the head
// makes every waiter behind it wait for the upgrader too. When that new
// edge closes a cycle, the refresh must wake the waiter with
// ErrDeadlock; left stale, the three transactions wait forever.
func TestUpgradeAtHeadRefreshEvictsVictim(t *testing.T) {
	m := NewManager()
	a, b := nm("a"), nm("b")
	const u, h, z, w = 1, 2, 3, 4
	for _, g := range []struct {
		txn  wal.TxnID
		name Name
		mode Mode
	}{{u, a, S}, {h, a, S}, {z, a, MV}, {w, b, X}} {
		if err := m.Lock(g.txn, g.name, g.mode); err != nil {
			t.Fatal(err)
		}
	}
	wDone := lockAsync(m, w, wal.NilTxn, a, MV) // waits for z's move lock
	waitForWaiters(t, m, 1)
	hDone := lockAsync(m, h, wal.NilTxn, b, S) // waits for w
	waitForWaiters(t, m, 2)
	uDone := lockAsync(m, u, wal.NilTxn, a, X) // upgrade jumps ahead of w

	if err := result(t, wDone, "txn w"); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("waiter behind the upgrade: err = %v, want ErrDeadlock", err)
	}
	m.ReleaseAll(w) // the victim aborts
	if err := result(t, hDone, "txn h"); err != nil {
		t.Fatalf("txn h: %v", err)
	}
	m.ReleaseAll(h)
	m.ReleaseAll(z)
	if err := result(t, uDone, "txn u"); err != nil {
		t.Fatalf("upgrade: %v", err)
	}
	m.ReleaseAll(u)
}

// TestParentWaitCycleDetected: an atomic action that blocks while its
// caller still holds a transaction's locks stalls that transaction too.
// A cycle through the parent must be reported, not hang both threads.
func TestParentWaitCycleDetected(t *testing.T) {
	m := NewManager()
	a, b := nm("a"), nm("b")
	const parent, other, action = 1, 2, 3
	if err := m.Lock(parent, a, X); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(other, b, X); err != nil {
		t.Fatal(err)
	}
	actDone := lockAsync(m, action, parent, b, X) // parent's thread blocks here
	waitForWaiters(t, m, 1)

	if err := result(t, lockAsync(m, other, wal.NilTxn, a, X), "txn other"); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("cycle through the parent: err = %v, want ErrDeadlock", err)
	}
	m.ReleaseAll(other)
	if err := result(t, actDone, "atomic action"); err != nil {
		t.Fatalf("atomic action: %v", err)
	}
	m.ReleaseAll(action)
	m.ReleaseAll(parent)
}
