package main

import (
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/wal"
)

// counters is one reading of every counter the layers export. The
// per-layer metrics are differences between two readings taken around
// the untraced timed phase.
type counters struct {
	core core.StatsSnapshot

	tsbTimeSplits, tsbKeySplits, tsbSoftOverflows int64
	tsbHistWalks, tsbGCRetired                    int64

	lockGrants, lockWaits, lockDeadlocks int64

	walAppends       int64
	walGroupRequests int64
	walGroupRounds   int64
	walPipe          wal.PipelineStats
	walFile          wal.FileWALStats
	disk             storage.FileDiskStats
	pool             storage.PoolStats
}

func (v *env) readCounters() counters {
	var c counters
	if v.ct != nil {
		c.core = v.ct.Stats.Snapshot()
	}
	if t := v.tt; t != nil {
		c.tsbTimeSplits = t.Stats.TimeSplits.Load()
		c.tsbKeySplits = t.Stats.KeySplits.Load()
		c.tsbSoftOverflows = t.Stats.SoftOverflows.Load()
		c.tsbHistWalks = t.Stats.HistSibWalks.Load()
		c.tsbGCRetired = t.Stats.GCRetiredNodes.Load()
	}
	ls := v.e.Locks.StatsSnapshot()
	c.lockGrants, c.lockWaits, c.lockDeadlocks = ls.Grants, ls.Waits, ls.Deadlocks
	c.walAppends, _ = v.e.Log.Stats()
	c.walGroupRequests, c.walGroupRounds = v.e.Log.GroupCommitStats()
	c.walPipe = v.e.Log.PipelineStatsSnapshot()
	var disks map[uint32]storage.FileDiskStats
	c.walFile, disks = v.e.FileStats()
	c.disk = disks[storeID]
	c.pool = v.store.Pool.Stats()
	return c
}

// phaseTotals are the client-side counts of one timed phase that the
// per-layer ratios divide by.
type phaseTotals struct {
	ops       int64 // completed client operations
	commits   int64 // committed user transactions
	txns      int64 // user transactions begun
	multigets int64
	asofs     int64
	userBytes int64 // key+value bytes of acknowledged writes
}

// layerMetrics turns two counter readings into the per-layer deltas.
func layerMetrics(m *metrics, a, b counters, t phaseTotals) {
	ops := float64(t.ops)

	hits := b.core.OptimisticHits - a.core.OptimisticHits
	retries := b.core.OptimisticRetries - a.core.OptimisticRetries
	m.set("core.opt_hit_ratio", ratio(float64(hits), float64(hits+retries)), "ratio")
	m.set("core.opt_hits", float64(hits), "count")
	m.set("core.opt_retries", float64(retries), "count")
	m.set("core.opt_fallbacks", float64(b.core.OptimisticFallbacks-a.core.OptimisticFallbacks), "count")
	restarts := float64(b.core.Restarts - a.core.Restarts)
	m.set("core.restarts_per_op", ratio(restarts, ops), "1/op")
	m.set("core.restarts", restarts, "count")
	side := float64(b.core.SideTraversals - a.core.SideTraversals)
	m.set("core.side_traversals_per_op", ratio(side, ops), "1/op")
	m.set("core.side_traversals", side, "count")
	m.set("core.leaf_splits", float64(b.core.LeafSplits-a.core.LeafSplits), "count")
	m.set("core.posts_performed", float64(b.core.PostsPerformed-a.core.PostsPerformed), "count")
	saved := float64(b.core.LeafVisitsSaved - a.core.LeafVisitsSaved)
	m.set("core.leaf_visits_saved_per_multiget", ratio(saved, float64(t.multigets)), "1/op")
	m.set("core.leaf_visits_saved", saved, "count")
	m.set("core.multigets", float64(t.multigets), "count")

	m.set("tsb.time_splits", float64(b.tsbTimeSplits-a.tsbTimeSplits), "count")
	m.set("tsb.key_splits", float64(b.tsbKeySplits-a.tsbKeySplits), "count")
	m.set("tsb.soft_overflows", float64(b.tsbSoftOverflows-a.tsbSoftOverflows), "count")
	walks := float64(b.tsbHistWalks - a.tsbHistWalks)
	m.set("tsb.hist_walks_per_asof", ratio(walks, float64(t.asofs)), "1/op")
	m.set("tsb.hist_walks", walks, "count")
	m.set("tsb.asof_scans", float64(t.asofs), "count")
	m.set("tsb.gc_retired_nodes", float64(b.tsbGCRetired-a.tsbGCRetired), "count")

	m.set("txn.commits", float64(t.commits), "count")

	txns := float64(t.txns)
	grants := float64(b.lockGrants - a.lockGrants)
	waits := float64(b.lockWaits - a.lockWaits)
	deadlocks := float64(b.lockDeadlocks - a.lockDeadlocks)
	m.set("lock.grants_per_txn", ratio(grants, txns), "1/txn")
	m.set("lock.waits_per_txn", ratio(waits, txns), "1/txn")
	m.set("lock.deadlocks_per_txn", ratio(deadlocks, txns), "1/txn")
	m.set("lock.grants", grants, "count")
	m.set("lock.waits", waits, "count")
	m.set("lock.deadlocks", deadlocks, "count")

	commits := float64(t.commits)
	appends := float64(b.walAppends - a.walAppends)
	reqs := float64(b.walGroupRequests - a.walGroupRequests)
	rounds := float64(b.walGroupRounds - a.walGroupRounds)
	persists := float64(b.walFile.Persists - a.walFile.Persists)
	walBytes := float64(b.walFile.BytesPersisted - a.walFile.BytesPersisted)
	wr := float64(b.walPipe.WriteRounds - a.walPipe.WriteRounds)
	ov := float64(b.walPipe.Overlaps - a.walPipe.Overlaps)
	m.set("wal.appends_per_commit", ratio(appends, commits), "1/commit")
	m.set("wal.commits_per_round", ratio(reqs, rounds), "1/round")
	m.set("wal.persists_per_commit", ratio(persists, commits), "1/commit")
	m.set("wal.persists_per_op", ratio(persists, ops), "1/op")
	m.set("wal.bytes_per_commit", ratio(walBytes, commits), "B/commit")
	m.set("wal.write_overlap_ratio", ratio(ov, wr), "ratio")
	m.set("wal.appends", appends, "count")
	m.set("wal.group_requests", reqs, "count")
	m.set("wal.group_rounds", rounds, "count")
	m.set("wal.persists", persists, "count")
	m.set("wal.bytes_persisted", walBytes, "B")
	m.set("wal.write_rounds", wr, "count")
	m.set("wal.overlaps", ov, "count")
	m.set("wal.segments_recycled", float64(b.walFile.SegmentsRecycled-a.walFile.SegmentsRecycled), "count")

	ph := float64(b.pool.Hits - a.pool.Hits)
	pm := float64(b.pool.Misses - a.pool.Misses)
	ev := float64(b.pool.Evictions - a.pool.Evictions)
	pi := float64(b.pool.PrefetchIssued - a.pool.PrefetchIssued)
	phit := float64(b.pool.PrefetchHit - a.pool.PrefetchHit)
	pw := float64(b.pool.PrefetchWasted - a.pool.PrefetchWasted)
	m.set("storage.hit_ratio", ratio(ph, ph+pm), "ratio")
	m.set("storage.hits", ph, "count")
	m.set("storage.misses", pm, "count")
	m.set("storage.misses_per_op", ratio(pm, ops), "1/op")
	m.set("storage.evictions", ev, "count")
	m.set("storage.evictions_per_op", ratio(ev, ops), "1/op")
	m.set("storage.prefetch_hit_ratio", ratio(phit, pi), "ratio")
	m.set("storage.prefetch_wasted_ratio", ratio(pw, pi), "ratio")
	m.set("storage.prefetch_issued", pi, "count")
	m.set("storage.prefetch_hits", phit, "count")
	m.set("storage.prefetch_wasted", pw, "count")
	m.set("storage.pages_flushed", float64(b.pool.Flushes-a.pool.Flushes), "count")
	pageBytes := float64(b.disk.BytesWritten - a.disk.BytesWritten)
	m.set("storage.page_bytes_per_user_byte", ratio(pageBytes, float64(t.userBytes)), "ratio")
	m.set("storage.page_bytes_written", pageBytes, "B")
	m.set("storage.user_bytes_written", float64(t.userBytes), "B")
}
