package engine

import (
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/storage"
	"repro/internal/wal"
)

// bgWriter paces dirty-page write-back in the background so the dirty
// page table a checkpoint captures — and with it restart's redo window
// and the WAL segments that must be kept live — stays short. Each tick
// it flushes the pages with the OLDEST recLSNs first: those are exactly
// the pages pinning the recycle horizon down. After a checkpoint it
// targets every page whose recLSN predates that checkpoint, so by the
// next checkpoint the horizon has moved past it and the segments in
// between are recyclable.
type bgWriter struct {
	e        *Engine
	interval time.Duration
	batch    int
	target   atomic.Uint64 // flush everything with recLSN below this
	flushed  atomic.Int64
	ticks    atomic.Int64
	rearmed  atomic.Int64 // pages whose batched flush failed and were requeued
	failures atomic.Int64 // batches whose flush returned an error
	lastErr  atomic.Pointer[error]
	done     chan struct{}
	stopped  chan struct{}
}

func startBgWriter(e *Engine, interval time.Duration, batch int) *bgWriter {
	if batch <= 0 {
		batch = 32
	}
	w := &bgWriter{e: e, interval: interval, batch: batch,
		done: make(chan struct{}), stopped: make(chan struct{})}
	go w.run()
	return w
}

// noteCheckpoint records the latest checkpoint LSN: pages dirtied before
// it become the writer's priority set.
func (w *bgWriter) noteCheckpoint(lsn wal.LSN) { w.target.Store(uint64(lsn)) }

func (w *bgWriter) stop() {
	close(w.done)
	<-w.stopped
}

// Stats returns pages flushed by the writer and ticks run.
func (w *bgWriter) stats() (flushed, ticks int64) {
	return w.flushed.Load(), w.ticks.Load()
}

func (w *bgWriter) run() {
	defer close(w.stopped)
	t := time.NewTicker(w.interval)
	defer t.Stop()
	for {
		select {
		case <-w.done:
			return
		case <-t.C:
			w.tick()
		}
	}
}

type dirtyRef struct {
	pool *storage.Pool
	pid  storage.PageID
	rec  wal.LSN
}

func (w *bgWriter) tick() {
	w.ticks.Add(1)
	if w.e.Degraded() {
		return
	}
	var dirty []dirtyRef
	for _, p := range w.e.Pools() {
		for pid, rec := range p.DirtyPages() {
			dirty = append(dirty, dirtyRef{pool: p, pid: pid, rec: rec})
		}
	}
	if len(dirty) == 0 {
		return
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i].rec < dirty[j].rec })
	n := w.batch
	// Everything below the last checkpoint is overdue: clearing it is
	// what lets the next checkpoint advance the horizon, so allow a
	// deeper sweep than the steady-state batch.
	if tgt := wal.LSN(w.target.Load()); tgt != wal.NilLSN {
		overdue := sort.Search(len(dirty), func(i int) bool { return dirty[i].rec >= tgt })
		if overdue > n {
			n = overdue
			if max := 4 * w.batch; n > max {
				n = max
			}
		}
	}
	if n > len(dirty) {
		n = len(dirty)
	}
	// Flush as sorted per-pool batches: each batch pays one log force for
	// its maximum pageLSN instead of one per page, and the recLSN sort
	// means each batch drains the oldest redo-window pins first.
	type poolBatch struct {
		pool *storage.Pool
		pids []storage.PageID
	}
	var batches []poolBatch
	idx := make(map[*storage.Pool]int)
	for _, d := range dirty[:n] {
		i, ok := idx[d.pool]
		if !ok {
			i = len(batches)
			idx[d.pool] = i
			batches = append(batches, poolBatch{pool: d.pool})
		}
		batches[i].pids = append(batches[i].pids, d.pid)
	}
	for _, b := range batches {
		select {
		case <-w.done:
			return
		default:
		}
		// A failed flush leaves the page dirty; FlushBatch reports which
		// pages failed so they are explicitly re-armed (counted) for the
		// next tick's collection rather than silently dropped from the
		// round. (They stay in the pool's dirty table, so the next tick's
		// DirtyPages sweep re-collects them — or gives up for good once
		// the engine is degraded.)
		flushed, failed, err := b.pool.FlushBatch(b.pids)
		w.flushed.Add(int64(flushed))
		if len(failed) > 0 {
			w.rearmed.Add(int64(len(failed)))
		}
		if err != nil {
			w.failures.Add(1)
			w.lastErr.Store(&err)
		}
	}
}

// WriteBackStats returns the background writer's pages-flushed and tick
// counters (zero when the writer is disabled).
func (e *Engine) WriteBackStats() (flushed, ticks int64) {
	if e.bg == nil {
		return 0, 0
	}
	return e.bg.stats()
}

// WriteBackErrors returns how many of the background writer's flush
// batches failed and the last failure's error (zero and nil when none
// failed or the writer is disabled). A failed page stays dirty and is
// retried on a later tick, so a non-zero count with a clean dirty table
// means the failures were transient.
func (e *Engine) WriteBackErrors() (failures int64, last error) {
	if e.bg == nil {
		return 0, nil
	}
	if p := e.bg.lastErr.Load(); p != nil {
		last = *p
	}
	return e.bg.failures.Load(), last
}
