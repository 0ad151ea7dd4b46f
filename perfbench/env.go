package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/recovery"
	"repro/internal/storage"
	"repro/internal/tsb"
	"repro/internal/wal"
)

const (
	storeID  = 1
	treeName = "bench"
	// writeBackInterval and prefetchWindow turn on the background page
	// writer and scan read-ahead, which the engine leaves off by default.
	writeBackInterval = 50 * time.Millisecond
	prefetchWindow    = 8
)

// env is one file-backed engine with the workload's tree on store 1.
type env struct {
	dir   string
	pool  int
	isTSB bool

	e     *engine.Engine
	store *storage.Store
	cb    *core.Binding
	tb    *tsb.Binding
	ct    *core.Tree
	tt    *tsb.Tree
}

func engineOptions(dir string, pool int) engine.Options {
	// Every workload runs SyncNever: commit records still go through the
	// pipelined group commit into real segment files, only the fsync is
	// skipped (see README.md for why).
	return engine.Options{
		DataDir:           dir,
		PoolCapacity:      pool,
		Sync:              wal.SyncNever,
		WriteBackInterval: writeBackInterval,
		PrefetchWindow:    prefetchWindow,
	}
}

// attach makes e the env's engine: it registers the tree's record kinds
// and adds the store, which restart needs before redo.
func (v *env) attach(e *engine.Engine) {
	v.e, v.ct, v.tt = e, nil, nil
	if v.isTSB {
		v.tb = tsb.Register(e.Reg)
		v.store = e.AddStore(storeID, tsb.Codec{})
	} else {
		v.cb = core.Register(e.Reg, e.Opts.PageOriented)
		v.store = e.AddStore(storeID, core.Codec{})
	}
}

// openTree creates the tree on a fresh engine, or opens it after redo.
func (v *env) openTree(create bool) error {
	var err error
	switch {
	case v.isTSB && create:
		v.tt, err = tsb.Create(v.store, v.e.TM, v.e.Locks, v.tb, treeName, tsb.Options{GC: true})
	case v.isTSB:
		v.tt, err = tsb.Open(v.store, v.e.TM, v.e.Locks, v.tb, treeName, tsb.Options{GC: true})
	case create:
		v.ct, err = core.Create(v.store, v.e.TM, v.e.Locks, v.cb, treeName, core.Options{})
	default:
		v.ct, err = core.Open(v.store, v.e.TM, v.e.Locks, v.cb, treeName, core.Options{})
	}
	return err
}

// createEnv makes a fresh engine in an empty dir and creates the tree.
func createEnv(dir string, pool int, isTSB bool) (*env, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	e, recovered, err := engine.Open(engineOptions(dir, pool))
	if err != nil {
		return nil, fmt.Errorf("engine.Open: %w", err)
	}
	if recovered {
		e.Close()
		return nil, fmt.Errorf("engine.Open: %s is not empty", dir)
	}
	v := &env{dir: dir, pool: pool, isTSB: isTSB}
	v.attach(e)
	if err := v.openTree(true); err != nil {
		e.Close()
		return nil, fmt.Errorf("create tree: %w", err)
	}
	return v, nil
}

// close shuts the tree and then the engine down cleanly.
func (v *env) close(tr *tracer) error {
	s := tr.begin(spEngineClose)
	defer tr.end(s)
	if v.ct != nil {
		v.ct.Close()
	}
	if v.tt != nil {
		v.tt.Close()
	}
	return v.e.Close()
}

// reopenTimes are the wall times of one restart's steps.
type reopenTimes struct {
	close, open, analyzeRedo, treeOpen, undo time.Duration
	stats                                    recovery.Stats
	closeErr                                 error // the restart goes on after a failed close
}

func (r reopenTimes) total() time.Duration {
	return r.close + r.open + r.analyzeRedo + r.treeOpen + r.undo
}

// reopen closes the engine and restarts it on the same directory:
// engine.Open, AnalyzeAndRedo, tree Open and FinishRecovery. A failed
// close is reported in closeErr and the restart still runs: it recovers
// from whatever the close left on disk.
func (v *env) reopen(tr *tracer) (reopenTimes, error) {
	var rt reopenTimes
	root := tr.begin(spReopen)
	defer tr.end(root)

	t := time.Now()
	rt.closeErr = v.close(tr)
	rt.close = time.Since(t)
	// A restarted process starts with an empty heap: the closed engine's
	// garbage (its in-memory log alone is as large as the absolute LSN) is
	// collected outside the timed steps.
	runtime.GC()

	t = time.Now()
	s := tr.begin(spEngineOpen)
	e, recovered, err := engine.Open(engineOptions(v.dir, v.pool))
	if err == nil {
		v.attach(e)
	}
	tr.end(s)
	rt.open = time.Since(t)
	if err != nil {
		return rt, fmt.Errorf("engine.Open: %w", err)
	}
	if !recovered {
		return rt, fmt.Errorf("engine.Open: no log found in %s", v.dir)
	}

	t = time.Now()
	s = tr.begin(spAnalyzeRedo)
	pend, err := e.AnalyzeAndRedo()
	tr.end(s)
	rt.analyzeRedo = time.Since(t)
	if err != nil {
		return rt, fmt.Errorf("AnalyzeAndRedo: %w", err)
	}

	t = time.Now()
	open := spCoreOpen
	if v.isTSB {
		open = spTsbOpen
	}
	s = tr.begin(open)
	err = v.openTree(false)
	tr.end(s)
	rt.treeOpen = time.Since(t)
	if err != nil {
		return rt, fmt.Errorf("open tree: %w", err)
	}

	t = time.Now()
	s = tr.begin(spFinishRecovery)
	err = e.FinishRecovery(pend)
	tr.end(s)
	rt.undo = time.Since(t)
	rt.stats = pend.Stats
	if err != nil {
		return rt, fmt.Errorf("FinishRecovery: %w", err)
	}
	return rt, nil
}

// diskBytes sums every file under dir: page files, WAL segments and the
// WAL's master record.
func diskBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n, err
}
