package bench

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/keys"
	"repro/internal/wal"
)

// T21 tree geometry: t21Keys keys with t21Value-byte values, t21Leaf
// entries per leaf so a full leaf still fits one 8 KiB page slot.
const (
	t21Keys  = 2_000
	t21Value = 1 << 10
	t21Leaf  = 6
)

// t21TreeOpts are the tree options every T21 incarnation uses.
var t21TreeOpts = core.Options{LeafCapacity: t21Leaf}

// t21Opts are the engine options every T21 incarnation opens with.
func t21Opts(dir string) engine.Options {
	return engine.Options{DataDir: dir, PoolCapacity: 4096, SegmentSize: 1 << 20, Sync: wal.SyncNever}
}

// t21Restart is one measured reopen of a T21 directory.
type t21Restart struct {
	open, analyzeRedo, total time.Duration
	replayBytes, imageBytes  int64
	analyzed, redone         int
	heapMiB                  float64
}

// t21Reopen runs the full restart sequence on dir — engine.Open (WAL
// replay), AnalyzeAndRedo, core.Open, the undo pass — checks a sample of
// keys, and closes the engine again.
func t21Reopen(dir string) t21Restart {
	runtime.GC() // a restarted process starts with an empty heap
	var r t21Restart
	t0 := time.Now()
	e, recovered, err := engine.Open(t21Opts(dir))
	if err != nil || !recovered {
		panic(fmt.Sprintf("t21 reopen: recovered=%v err=%v", recovered, err))
	}
	r.open = time.Since(t0)
	b := core.Register(e.Reg, false)
	st := e.AddStore(1, core.Codec{})
	t1 := time.Now()
	pend, err := e.AnalyzeAndRedo()
	if err != nil {
		panic(err)
	}
	r.analyzeRedo = time.Since(t1)
	tree, err := core.Open(st, e.TM, e.Locks, b, "t21", t21TreeOpts)
	if err != nil {
		panic(err)
	}
	if err := e.FinishRecovery(pend); err != nil {
		panic(err)
	}
	r.total = time.Since(t0)

	ws, _ := e.FileStats()
	r.replayBytes = ws.ReplayBytes
	r.imageBytes = int64(pend.Stats.ImageBytes)
	r.analyzed, r.redone = pend.Stats.AnalyzedRecords, pend.Stats.RedoneRecords
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.heapMiB = float64(ms.HeapAlloc) / (1 << 20)

	for k := uint64(0); k < t21Keys; k += 97 {
		if _, ok, err := tree.Search(nil, keys.Uint64(k)); err != nil || !ok {
			panic(fmt.Sprintf("t21: key %d lost across restart (err=%v)", k, err))
		}
	}
	tree.Close()
	if err := e.Close(); err != nil {
		panic(err)
	}
	return r
}

// t21Build writes about logMiB of log into a fresh directory — updates
// of 1 KiB values, a checkpoint (which recycles WAL segments below its
// horizon) every 4 MiB — then flushes every page and checkpoints once
// more, so the retained window is the same few records at every volume.
// Returns the directory and the final absolute LSN.
func t21Build(logMiB int) (string, wal.LSN) {
	dir, err := os.MkdirTemp("", "pitree-t21-*")
	if err != nil {
		panic(err)
	}
	e, _, err := engine.Open(t21Opts(dir))
	if err != nil {
		panic(err)
	}
	b := core.Register(e.Reg, false)
	st := e.AddStore(1, core.Codec{})
	tree, err := core.Create(st, e.TM, e.Locks, b, "t21", t21TreeOpts)
	if err != nil {
		panic(err)
	}
	val := make([]byte, t21Value)
	for k := uint64(0); k < t21Keys; k++ {
		tx := e.TM.Begin()
		if err := tree.Insert(tx, keys.Uint64(k), val); err != nil {
			panic(err)
		}
		if err := tx.Commit(); err != nil {
			panic(err)
		}
	}
	target := wal.LSN(logMiB) << 20
	nextCkpt := e.Log.EndLSN() + 4<<20
	for i := uint64(0); e.Log.EndLSN() < target; i++ {
		val[i%t21Value]++
		tx := e.TM.Begin()
		if err := tree.Update(tx, keys.Uint64(i%t21Keys), val); err != nil {
			panic(err)
		}
		if err := tx.Commit(); err != nil {
			panic(err)
		}
		if e.Log.EndLSN() >= nextCkpt {
			if _, err := e.Checkpoint(); err != nil {
				panic(err)
			}
			nextCkpt = e.Log.EndLSN() + 4<<20
		}
	}
	tree.DrainCompletions()
	if _, err := e.FlushAll(); err != nil {
		panic(err)
	}
	if _, err := e.Checkpoint(); err != nil {
		panic(err)
	}
	end := e.Log.EndLSN()
	tree.Close()
	if err := e.Close(); err != nil {
		panic(err)
	}
	return dir, end
}

// T21RestartWindow is experiment T21: restart time against the total log
// volume a long-lived engine has written, at a fixed retained window.
// Every cell ends with all pages flushed and a checkpoint whose horizon
// recycles everything before it, so restart analyzes and redoes the same
// handful of records whatever the volume; only the absolute LSN grows.
// The claim is that restart time is flat in the volume: the WAL replay,
// the continued log and the restart image are all sized by the retained
// window. Before window-relative images each of the three buffers was as
// large as the absolute LSN, and restart time grew linearly with it.
// Restart time is the best of three reopens of the same directory.
func T21RestartWindow(w io.Writer, p Params) {
	volumes := []int{8, 16, 32, 64, 128}
	fmt.Fprintf(w, "\nT21: restart vs total log volume (file-backed, %d keys, %d B values, window = final checkpoint)\n", t21Keys, t21Value)
	fmt.Fprintf(w, "%8s %14s %12s %12s %9s %9s %9s %9s %8s %9s\n",
		"log MiB", "end LSN", "replay B", "image B", "open ms", "a+r ms", "total ms", "analyzed", "redone", "heap MiB")
	var first, last t21Restart
	for i, v := range volumes {
		dir, end := t21Build(v)
		best := t21Reopen(dir)
		for rep := 0; rep < 2; rep++ {
			if r := t21Reopen(dir); r.total < best.total {
				best = r
			}
		}
		os.RemoveAll(dir)
		fmt.Fprintf(w, "%8d %14d %12d %12d %9.2f %9.2f %9.2f %9d %8d %9.1f\n",
			v, end, best.replayBytes, best.imageBytes, ms(best.open), ms(best.analyzeRedo), ms(best.total),
			best.analyzed, best.redone, best.heapMiB)
		tag := fmt.Sprintf("log_mib=%d", v)
		p.Report.Add("T21", "restart_ms."+tag, ms(best.total), "ms")
		p.Report.Add("T21", "open_ms."+tag, ms(best.open), "ms")
		p.Report.Add("T21", "analyze_redo_ms."+tag, ms(best.analyzeRedo), "ms")
		p.Report.Add("T21", "replay_bytes."+tag, float64(best.replayBytes), "B")
		p.Report.Add("T21", "image_bytes."+tag, float64(best.imageBytes), "B")
		p.Report.Add("T21", "heap_after_restart_mib."+tag, best.heapMiB, "MiB")
		if i == 0 {
			first = best
		}
		last = best
	}
	// The log-sized work is open + analyze/redo; the rest of a restart
	// (page-file open, tree open, undo) is a constant of the tree.
	logPath := func(r t21Restart) float64 { return ms(r.open + r.analyzeRedo) }
	growth := float64(last.total) / float64(first.total)
	pathGrowth := logPath(last) / logPath(first)
	x := volumes[len(volumes)-1] / volumes[0]
	fmt.Fprintf(w, "at %d MiB vs %d MiB (%dx the log): total %.2fx, open+a+r %.2fx (flat ~1x; linear ~%dx)\n",
		volumes[len(volumes)-1], volumes[0], x, growth, pathGrowth, x)
	p.Report.Add("T21", "restart_growth", growth, "x")
	p.Report.Add("T21", "open_analyze_redo_growth", pathGrowth, "x")
}

// ms renders a duration in fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
