package bench

import (
	"bytes"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/keys"
)

// TestRunSmoke drives the workload runner at tiny sizes over every
// method, which keeps the harness itself exercised by `go test`.
func TestRunSmoke(t *testing.T) {
	for _, m := range AllMethods() {
		t.Run(m.Name, func(t *testing.T) {
			kv, closer := m.New(16)
			defer closer()
			Preload(kv, 500)
			r := Run(kv, 2, 300, 500, Mix{SearchPct: 50, InsertPct: 40})
			if r.Ops != 600 || r.OpsPerSec() <= 0 {
				t.Fatalf("result: %+v", r)
			}
			// Preloaded keys must still be there.
			if _, ok := kv.Search(keys.Uint64(0)); !ok {
				t.Fatal("preloaded key lost")
			}
		})
	}
}

// TestExperimentsSmoke runs the cheap experiment printers at reduced
// sizes and sanity-checks their output.
func TestExperimentsSmoke(t *testing.T) {
	p := Params{Threads: []int{1, 2}, Preload: 2000, OpsPerThread: 500, Capacity: 16, Report: &Report{}}
	var buf bytes.Buffer
	T4CrashMatrix(&buf, p)
	T5LazyCompletion(&buf, p)
	T9SavedPath(&buf, p)
	T13GroupCommit(&buf, p)
	out := buf.String()
	for _, want := range []string{"T4:", "logical-undo/CP", "T5:", "residual side traversals", "T9:", "T13:", "relative durability"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if len(p.Report.Metrics) == 0 {
		t.Fatal("experiments recorded no metrics")
	}
	for _, m := range p.Report.Metrics {
		if m.Name == "aa-only-forces" && m.Value != 0 {
			t.Fatalf("aa-only-forces = %v, want 0 (relative durability)", m.Value)
		}
	}
}

// Traversal micro-benchmarks: the interior-descent cost of a point
// lookup, optimistic vs fully latched. Run with `-cpu 1,4` (the Makefile
// bench target does): the optimistic path's advantage is contended latch
// traffic it avoids, so 1-CPU numbers understate it badly — with a
// single P there is no latch contention to remove, and the two variants
// should be read as a sanity floor, not a speedup claim. The multi-CPU
// variant is the measurement.
func benchmarkSearchDescent(b *testing.B, pessimistic bool) {
	const preload = 50_000
	pi := NewPiTree(engine.Options{}, core.Options{
		LeafCapacity:       64,
		IndexCapacity:      64,
		Consolidation:      true,
		CompletionWorkers:  2,
		PessimisticDescent: pessimistic,
	})
	defer pi.Close()
	Preload(pi, preload)
	pi.T.DrainCompletions()
	var seq atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		buf := make([]byte, 0, 64)
		base := seq.Add(0x9E3779B97F4A7C15)
		i := uint64(0)
		for pb.Next() {
			k := ((base + i) % preload) * 2
			i++
			v, ok, err := pi.T.SearchInto(nil, keys.Uint64(k), buf)
			if err != nil || !ok {
				b.Fatalf("search %d: found=%v err=%v", k, ok, err)
			}
			buf = v[:0]
		}
	})
}

func BenchmarkSearchDescentOptimistic(b *testing.B) { benchmarkSearchDescent(b, false) }
func BenchmarkSearchDescentLatched(b *testing.B)    { benchmarkSearchDescent(b, true) }

// TestPercentileDur pins the percentile helper.
func TestPercentileDur(t *testing.T) {
	if percentileDur(nil, 50) != 0 {
		t.Fatal("empty percentile")
	}
}
