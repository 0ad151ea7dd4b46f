package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/keys"
	"repro/internal/storage"
)

// poolRegimes are the two buffer-pool modes a scan must behave the same
// under: unbounded (no eviction) and a bounded pool far smaller than the
// tree.
var poolRegimes = []struct {
	name string
	cap  int
}{{"unbounded", 0}, {"bounded", 16}}

// evictAll writes back and drops every page of the tree's store but the
// meta page and the root (which the tree keeps pinned), so the next
// access to any leaf re-reads and re-decodes its stable image.
func evictAll(t testing.TB, tr *Tree) {
	t.Helper()
	tr.DrainCompletions()
	pool := tr.Store().Pool
	if _, err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for _, pid := range pool.Disk().PageIDs() {
		if pid != storage.MetaPage && pid != tr.RootPID() {
			pool.Drop(pid)
		}
	}
}

// TestRangeScanResultsStayIntact: keys and values handed to the callback
// belong to the caller. They survive the scan's return, later updates and
// deletes of the same records, and eviction and re-decoding of their
// leaves; appending to one does not disturb the next.
func TestRangeScanResultsStayIntact(t *testing.T) {
	for _, pr := range poolRegimes {
		t.Run(pr.name, func(t *testing.T) {
			fx := newFixture(t, engine.Options{PoolCapacity: pr.cap}, defaultTestOpts())
			const n = 400
			for i := 0; i < n; i++ {
				if err := fx.tree.Insert(nil, keys.Uint64(uint64(i)), val(i)); err != nil {
					t.Fatal(err)
				}
			}
			evictAll(t, fx.tree)
			type kv struct{ k, v []byte }
			var kept []kv
			err := fx.tree.RangeScan(nil, keys.Uint64(50), keys.Uint64(350), func(k keys.Key, v []byte) bool {
				kept = append(kept, kv{k, v})
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(kept) != 300 {
				t.Fatalf("scan returned %d records, want 300", len(kept))
			}
			for i := 50; i < 350; i++ {
				k := keys.Uint64(uint64(i))
				if i%3 == 0 {
					err = fx.tree.Delete(nil, k)
				} else {
					err = fx.tree.Update(nil, k, []byte(fmt.Sprintf("new-%d", i)))
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			evictAll(t, fx.tree)
			if err := fx.tree.RangeScan(nil, nil, nil, func(keys.Key, []byte) bool { return true }); err != nil {
				t.Fatal(err)
			}
			for i := range kept {
				kept[i].k = append(kept[i].k, 0xFF)
				kept[i].v = append(kept[i].v, 0xFF)
			}
			for i, r := range kept {
				want := 50 + i
				if !bytes.Equal(r.k, append(keys.Uint64(uint64(want)), 0xFF)) ||
					!bytes.Equal(r.v, append(val(want), 0xFF)) {
					t.Fatalf("record %d: kept key/value changed: %x / %q", want, r.k, r.v)
				}
			}
		})
	}
}

// TestRangeScanBounds: [lo, hi) semantics against a model, for bounds on
// present keys, absent keys, nil ends, empty and inverted ranges, and
// ranges inside, across and beyond single leaves.
func TestRangeScanBounds(t *testing.T) {
	for _, pr := range poolRegimes {
		t.Run(pr.name, func(t *testing.T) {
			fx := newFixture(t, engine.Options{PoolCapacity: pr.cap}, defaultTestOpts())
			const n = 200 // keys 0, 2, .., 398
			for i := 0; i < n; i++ {
				if err := fx.tree.Insert(nil, keys.Uint64(uint64(2*i)), val(2*i)); err != nil {
					t.Fatal(err)
				}
			}
			bound := func(x int) keys.Key {
				if x < 0 {
					return nil
				}
				return keys.Uint64(uint64(x))
			}
			cases := [][2]int{
				{-1, -1}, {-1, 10}, {10, -1}, {0, 400}, {1, 399}, {10, 11},
				{10, 10}, {11, 10}, {11, 13}, {12, 13}, {17, 31}, {396, -1},
				{398, 399}, {399, -1}, {500, -1}, {-1, 0}, {100, 300},
			}
			for _, c := range cases {
				var want []int
				for i := 0; i < n; i++ {
					k := 2 * i
					if (c[0] < 0 || k >= c[0]) && (c[1] < 0 || k < c[1]) {
						want = append(want, k)
					}
				}
				evictAll(t, fx.tree)
				var got []int
				err := fx.tree.RangeScan(nil, bound(c[0]), bound(c[1]), func(k keys.Key, v []byte) bool {
					got = append(got, int(keys.ToUint64(k)))
					if !bytes.Equal(v, val(int(keys.ToUint64(k)))) {
						t.Errorf("key %d: value %q", keys.ToUint64(k), v)
					}
					return true
				})
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("scan [%d, %d): got %v, want %v", c[0], c[1], got, want)
				}
			}
		})
	}
}
