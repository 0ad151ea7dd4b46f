// Command pitree-bench regenerates the experiment tables and figure
// series of DESIGN.md / EXPERIMENTS.md.
//
// Usage:
//
//	pitree-bench                 # run every experiment
//	pitree-bench -exp T1,T4,T10  # run a subset
//	pitree-bench -quick          # smaller sizes (default true)
//	pitree-bench -full           # larger sizes for stabler numbers
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() {
	expFlag := flag.String("exp", "all", "comma-separated experiment ids (T1..T21, F1, F2) or 'all'")
	full := flag.Bool("full", false, "larger workload sizes (slower, stabler numbers)")
	jsonPath := flag.String("json", "", "also write machine-readable metrics to this file")
	flag.Parse()

	p := bench.Quick()
	if *full {
		p.Preload = 200_000
		p.OpsPerThread = 100_000
		p.Threads = []int{1, 2, 4, 8, 16, 32}
	}
	if *jsonPath != "" {
		p.Report = &bench.Report{}
	}

	runners := []struct {
		id  string
		fn  func()
		doc string
	}{
		{"T1", func() { bench.T1SearchScaling(os.Stdout, p) }, "search scaling vs baselines"},
		{"T2", func() { bench.T2MixedScaling(os.Stdout, p) }, "mixed scaling vs baselines"},
		{"F1", func() { bench.F1Figure(os.Stdout, p) }, "throughput curves (CSV)"},
		{"T3", func() { bench.T3SMORate(os.Stdout, p) }, "decomposed vs serial SMOs"},
		{"F2", func() { bench.F2Crossover(os.Stdout, p) }, "SMO-rate crossover (CSV)"},
		{"T4", func() { bench.T4CrashMatrix(os.Stdout, p) }, "crash at every log boundary"},
		{"T5", func() { bench.T5LazyCompletion(os.Stdout, p) }, "lazy completion after crash"},
		{"T6", func() { bench.T6LatchHold(os.Stdout, p) }, "index latch hold times"},
		{"T7", func() { bench.T7MoveLocks(os.Stdout, p) }, "move locks: page vs logical undo"},
		{"T8", func() { bench.T8Invariants(os.Stdout, p) }, "CNS vs CP regimes"},
		{"T9", func() { bench.T9SavedPath(os.Stdout, p) }, "saved-path verification"},
		{"T10", func() { bench.T10TSB(os.Stdout, p) }, "TSB-tree time splits"},
		{"T11", func() { bench.T11Spatial(os.Stdout, p) }, "multi-attribute clipping"},
		{"T12", func() { bench.T12Recovery(os.Stdout, p) }, "recovery & relative durability"},
		{"T13", func() { bench.T13GroupCommit(os.Stdout, p) }, "group commit: forces per commit"},
		{"T15", func() { bench.T15ParallelRestart(os.Stdout, p) }, "parallel restart: log x dirty pages x workers"},
		{"T16", func() { bench.T16SnapshotReads(os.Stdout, p) }, "snapshot reads: lock-free MVCC vs locked reads"},
		{"T17", func() { bench.T17Churn(os.Stdout, p) }, "sustained churn: consolidation + free-space recycling"},
		{"T18", func() { bench.T18FileStorage(os.Stdout, p) }, "durable file-backed storage: fsync tax + group commit"},
		{"T19", func() { bench.T19PipelinedCommit(os.Stdout, p) }, "pipelined commit: ELR + write/sync overlap vs serial"},
		{"T20", func() { bench.T20BatchedOps(os.Stdout, p) }, "vectorized paths: batched MultiPut + scan read-ahead"},
		{"T21", func() { bench.T21RestartWindow(os.Stdout, p) }, "restart time vs total log volume at a fixed window"},
	}

	want := map[string]bool{}
	all := *expFlag == "all"
	for _, id := range strings.Split(*expFlag, ",") {
		want[strings.ToUpper(strings.TrimSpace(id))] = true
	}

	ran := 0
	for _, r := range runners {
		if all || want[r.id] {
			fmt.Printf("\n=== %s: %s ===\n", r.id, r.doc)
			r.fn()
			ran++
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiment matched %q; known ids:", *expFlag)
		for _, r := range runners {
			fmt.Fprintf(os.Stderr, " %s", r.id)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
	if *jsonPath != "" {
		if err := p.Report.WriteJSON(*jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote metrics to %s\n", *jsonPath)
	}
}
