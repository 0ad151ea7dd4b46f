package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/keys"
	"repro/internal/tsb"
)

// T16SnapshotReads is experiment T16: lock-free snapshot-isolation reads
// against lock-based consistent reads on the TSB-tree, under a zipfian
// read-heavy workload with a concurrent committing writer.
//
// Both read modes give a transaction-consistent view. The locked mode is
// the classical one: a read transaction takes the record S lock on every
// key it touches (strict 2PL), so hot keys serialize readers against the
// writer's X locks and every batch pays Begin/Commit. The snapshot mode
// captures (read timestamp, in-flight set) once and then reads through
// the version store with no locks at all — writers never wait for
// readers and readers never wait for writers. The experiment measures
// read throughput for both modes at 1/4/8 reader threads, the writer's
// throughput during each phase (flatness is the point: snapshot readers
// must not slow the writer), the lock-manager grant delta attributable
// to reads (zero for snapshots), and what version GC reclaimed behind
// the moving visibility horizon.
func T16SnapshotReads(w io.Writer, p Params) {
	const (
		nKeys       = 10_000
		batch       = 128 // reads per transaction / per snapshot capture
		writerBatch = 8   // puts per writer transaction
		preloadVers = 3
	)
	readsPerThread := p.OpsPerThread
	if readsPerThread < 10_000 {
		readsPerThread = 10_000
	}

	e := engine.New(engine.Options{})
	b := tsb.Register(e.Reg)
	st := e.AddStore(1, tsb.Codec{})
	tree, err := tsb.Create(st, e.TM, e.Locks, b, "t16",
		tsb.Options{DataCapacity: 32, IndexCapacity: 32, GC: true})
	if err != nil {
		panic(err)
	}
	defer tree.Close()

	for r := 0; r < preloadVers; r++ {
		for k := 0; k < nKeys; k++ {
			if err := tree.Put(nil, keys.Uint64(uint64(k)), []byte(fmt.Sprintf("p%d", r))); err != nil {
				panic(err)
			}
		}
	}
	tree.DrainCompletions()

	// Lock-based consistent read: batch reads under one transaction whose
	// record S locks are held to commit. Deadlocks (reader S against
	// writer X taken in opposite orders) abort the batch, which retries
	// under a fresh transaction — exactly what a 2PL system does.
	lockedReader := func(seed int64) {
		rng := rand.New(rand.NewSource(seed))
		zipf := rand.NewZipf(rng, 1.1, 1, nKeys-1)
		done := 0
		for done < readsPerThread {
			tx := e.TM.Begin()
			ok := true
			for i := 0; i < batch && done < readsPerThread; i++ {
				if _, _, err := tree.Get(tx, keys.Uint64(zipf.Uint64())); err != nil {
					ok = false
					break
				}
				done++
			}
			if ok {
				if err := tx.Commit(); err != nil {
					panic(err)
				}
			} else {
				_ = tx.Abort()
			}
		}
	}

	snapReader := func(seed int64) {
		rng := rand.New(rand.NewSource(seed))
		zipf := rand.NewZipf(rng, 1.1, 1, nKeys-1)
		buf := make([]byte, 0, 64)
		done := 0
		for done < readsPerThread {
			snap := e.BeginSnapshot()
			for i := 0; i < batch && done < readsPerThread; i++ {
				v, _, err := tree.SnapshotGet(snap, keys.Uint64(zipf.Uint64()), buf)
				if err != nil {
					panic(err)
				}
				if v != nil {
					buf = v[:0]
				}
				done++
			}
			snap.Release()
		}
	}

	// The writer is zipfian like the readers: update skew follows read
	// skew in real workloads, and it is exactly the hot keys where locked
	// readers queue behind the writer's X locks (held to commit, which
	// includes the log force) while snapshot readers never wait.
	writer := func(stop *atomic.Bool, n *atomic.Int64, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		zipf := rand.NewZipf(rng, 1.1, 1, nKeys-1)
		for !stop.Load() {
			tx := e.TM.Begin()
			ok := true
			for i := 0; i < writerBatch; i++ {
				if err := tree.Put(tx, keys.Uint64(zipf.Uint64()), []byte("w")); err != nil {
					ok = false
					break
				}
			}
			if ok && tx.Commit() == nil {
				n.Add(writerBatch)
			} else if !ok {
				_ = tx.Abort()
			}
		}
	}

	// Lock-freedom check first, with no writer running: the grant delta
	// across a pure snapshot-read burst must be exactly zero.
	grantsBefore := e.Locks.Grants()
	snapReader(101)
	snapGrants := e.Locks.Grants() - grantsBefore
	p.Report.Add("T16", "snapshot/lock-grants", float64(snapGrants), "count")

	fmt.Fprintf(w, "\nT16: snapshot reads — zipfian(1.1) over %d keys, %d reads/thread, batch %d, one committing writer\n",
		nKeys, readsPerThread, batch)
	fmt.Fprintf(w, "snapshot-read lock grants (no writer): %d\n", snapGrants)
	fmt.Fprintf(w, "%-10s%14s%14s%10s%16s%16s\n",
		"threads", "locked kops", "snapshot kops", "speedup", "writer@locked", "writer@snapshot")

	run := func(tc int, read func(int64)) (readKops, writerKops float64, lag uint64) {
		var stop atomic.Bool
		var wrote atomic.Int64
		var wwg sync.WaitGroup
		wwg.Add(1)
		go func() { defer wwg.Done(); writer(&stop, &wrote, int64(tc)*31+7) }()

		var lagSample atomic.Uint64
		go func() {
			time.Sleep(30 * time.Millisecond)
			oldest, stable := e.TM.Watermarks()
			if stable > oldest && oldest != 0 {
				lagSample.Store(stable - oldest)
			}
		}()

		var rwg sync.WaitGroup
		start := time.Now()
		for t := 0; t < tc; t++ {
			rwg.Add(1)
			go func(t int) { defer rwg.Done(); read(int64(t)*7919 + 13) }(t)
		}
		rwg.Wait()
		el := time.Since(start)
		stop.Store(true)
		wwg.Wait()
		return float64(tc*readsPerThread) / el.Seconds() / 1000,
			float64(wrote.Load()) / el.Seconds() / 1000,
			lagSample.Load()
	}

	for _, tc := range []int{1, 4, 8} {
		lk, lw, _ := run(tc, lockedReader)
		sk, sw, lag := run(tc, snapReader)
		speedup := sk / lk
		fmt.Fprintf(w, "%-10d%14.1f%14.1f%9.2fx%16.1f%16.1f\n", tc, lk, sk, speedup, lw, sw)
		p.Report.Add("T16", fmt.Sprintf("locked/threads=%d", tc), lk*1000, "ops/s")
		p.Report.Add("T16", fmt.Sprintf("snapshot/threads=%d", tc), sk*1000, "ops/s")
		p.Report.Add("T16", fmt.Sprintf("speedup/threads=%d", tc), speedup, "x")
		p.Report.Add("T16", fmt.Sprintf("writer/locked/threads=%d", tc), lw*1000, "ops/s")
		p.Report.Add("T16", fmt.Sprintf("writer/snapshot/threads=%d", tc), sw*1000, "ops/s")
		if lag > 0 {
			p.Report.Add("T16", fmt.Sprintf("oldest-snapshot-lag/threads=%d", tc), float64(lag), "ticks")
		}
	}

	// Writer flatness at a fixed offered read load. Raw writer columns
	// above confound two effects on shared CPUs: locked readers donate
	// the core to the writer whenever they block, lock-free readers never
	// do. Pacing the readers (4 threads, small batches with sleeps, well
	// under either mode's capacity) holds the read load constant, so the
	// writer's throughput difference is purely what the readers' locks
	// cost it: S-lock queues on hot keys in locked mode, nothing in
	// snapshot mode.
	paced := func(snapshot bool) float64 {
		var stop atomic.Bool
		var wrote atomic.Int64
		var wwg sync.WaitGroup
		wwg.Add(1)
		go func() { defer wwg.Done(); writer(&stop, &wrote, 99) }()
		var rwg sync.WaitGroup
		deadline := time.Now().Add(2 * time.Second)
		start := time.Now()
		for t := 0; t < 4; t++ {
			rwg.Add(1)
			go func(seed int64) {
				defer rwg.Done()
				rng := rand.New(rand.NewSource(seed))
				zipf := rand.NewZipf(rng, 1.1, 1, nKeys-1)
				buf := make([]byte, 0, 64)
				for time.Now().Before(deadline) {
					if snapshot {
						snap := e.BeginSnapshot()
						for i := 0; i < 16; i++ {
							if v, _, err := tree.SnapshotGet(snap, keys.Uint64(zipf.Uint64()), buf); err == nil && v != nil {
								buf = v[:0]
							}
						}
						snap.Release()
					} else {
						tx := e.TM.Begin()
						ok := true
						for i := 0; i < 16; i++ {
							if _, _, err := tree.Get(tx, keys.Uint64(zipf.Uint64())); err != nil {
								ok = false
								break
							}
						}
						if ok {
							_ = tx.Commit()
						} else {
							_ = tx.Abort()
						}
					}
					time.Sleep(1600 * time.Microsecond)
				}
			}(int64(t) + 555)
		}
		rwg.Wait()
		el := time.Since(start)
		stop.Store(true)
		wwg.Wait()
		return float64(wrote.Load()) / el.Seconds() / 1000
	}
	pl := paced(false)
	ps := paced(true)
	fmt.Fprintf(w, "writer under paced reads (4 threads, fixed load): locked readers %.1f kops, snapshot readers %.1f kops\n", pl, ps)
	p.Report.Add("T16", "writer/paced-locked", pl*1000, "ops/s")
	p.Report.Add("T16", "writer/paced-snapshot", ps*1000, "ops/s")

	tree.DrainCompletions()
	if _, err := tree.RunGC(); err != nil {
		panic(err)
	}
	s := &tree.Stats
	fmt.Fprintf(w, "snapshot gets=%d hist-walks=%d restarts=%d | gc passes=%d retired nodes=%d reclaimed versions=%d removed terms=%d\n",
		s.SnapshotGets.Load(), s.SnapshotHistWalks.Load(), s.Restarts.Load(),
		s.GCPasses.Load(), s.GCRetiredNodes.Load(), s.GCReclaimedVersions.Load(), s.GCRemovedTerms.Load())
	p.Report.Add("T16", "gc/retired-nodes", float64(s.GCRetiredNodes.Load()), "count")
	p.Report.Add("T16", "gc/reclaimed-versions", float64(s.GCReclaimedVersions.Load()), "count")
	p.Report.Add("T16", "snapshot/hist-walks", float64(s.SnapshotHistWalks.Load()), "count")
}
