package core

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/keys"
)

// benchKeys is the warm tree size of the descent benchmarks: three
// levels at the default 64-entry capacities, all resident in the pool.
const benchKeys = 50000

// benchTree builds a warm, quiescent tree of keys 0..benchKeys-1 with the
// default (CNS) options, optimistic descent on or off, and returns it
// with its keys (prebuilt, so lookups measure no key allocation).
func benchTree(b *testing.B, pessimistic bool) (*Tree, []keys.Key) {
	b.Helper()
	fx := newFixture(b, engine.Options{}, Options{PessimisticDescent: pessimistic})
	all := make([]keys.Key, benchKeys)
	vs := make([][]byte, benchKeys)
	for i := range all {
		all[i], vs[i] = keys.Uint64(uint64(i)), val(i)
	}
	for i := 0; i < benchKeys; i += 256 {
		j := min(i+256, benchKeys)
		if err := fx.tree.MultiPut(nil, all[i:j], vs[i:j]); err != nil {
			b.Fatalf("load: %v", err)
		}
	}
	fx.tree.DrainCompletions()
	return fx.tree, all
}

// benchModes runs fn once per descent mode.
func benchModes(b *testing.B, fn func(b *testing.B, tree *Tree, all []keys.Key)) {
	for _, m := range []struct {
		name        string
		pessimistic bool
	}{{"optimistic", false}, {"latched", true}} {
		b.Run(m.name, func(b *testing.B) {
			tree, all := benchTree(b, m.pessimistic)
			fn(b, tree, all)
		})
	}
}

// BenchmarkSearchInto measures one warm point lookup: a root-to-leaf
// descent, one leaf S latch and a value copy into a reused buffer. Run
// with -cpu 1,4: the parallel arm shares the interior nodes' snapshots
// (optimistic) or latches (latched) across goroutines.
func BenchmarkSearchInto(b *testing.B) {
	benchModes(b, func(b *testing.B, tree *Tree, all []keys.Key) {
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			buf := make([]byte, 0, 64)
			x := uint64(1)
			for pb.Next() {
				x = x*6364136223846793005 + 1442695040888963407
				if _, ok, err := tree.SearchInto(nil, all[x>>33%benchKeys], buf); err != nil || !ok {
					b.Errorf("search: found=%v err=%v", ok, err)
					return
				}
			}
		})
	})
}

// BenchmarkMultiGet measures a 16-key batch of random warm lookups (one
// descent per distinct leaf); ns/op is per batch.
func BenchmarkMultiGet(b *testing.B) {
	benchModes(b, func(b *testing.B, tree *Tree, all []keys.Key) {
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			const batch = 16
			ks := make([]keys.Key, batch)
			vals := make([][]byte, batch)
			found := make([]bool, batch)
			x := uint64(1)
			for pb.Next() {
				for i := range ks {
					x = x*6364136223846793005 + 1442695040888963407
					ks[i] = all[x>>33%benchKeys]
				}
				if err := tree.MultiGet(nil, ks, vals, found); err != nil {
					b.Errorf("multiget: %v", err)
					return
				}
			}
		})
	})
}
