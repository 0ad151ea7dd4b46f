// Command perfbench is the repository's benchmark: it runs one named
// workload against a file-backed engine with two closed-loop clients,
// checks every result, and prints each metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run adds a traced phase and reports the per-layer ones. See README.md.
//
//	go run . -workload oltp-zipf -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/storage"
)

// config sizes one workload.
type config struct {
	keys      int   // preloaded keys
	pool      int   // buffer-pool frames
	ckptEvery int64 // completed operations between checkpoints
	setups    int   // setups per run; setup_s is their median
	reopens   int   // restarts per run; reopen_s is the fastest
	isTSB     bool
}

var workloadNames = []string{"oltp-zipf", "scan-cold", "timetravel"}

func configFor(name string, tiny bool) (config, bool) {
	var c config
	switch name {
	case "oltp-zipf":
		c = config{keys: 100_000, pool: 4096, ckptEvery: 100_000}
	case "scan-cold":
		c = config{keys: 200_000, pool: 512, ckptEvery: 20_000}
	case "timetravel":
		c = config{keys: 50_000, pool: 4096, ckptEvery: 10_000, isTSB: true}
	default:
		return c, false
	}
	c.setups, c.reopens = 3, 7
	if tiny {
		c.keys, c.ckptEvery, c.setups, c.reopens = 3000, 500, 2, 2
		c.pool = min(c.pool, 64)
	}
	return c, true
}

func newWorkload(name string, cfg config) workload {
	switch name {
	case "oltp-zipf":
		return &oltp{n: cfg.keys}
	case "scan-cold":
		return &scanCold{n: cfg.keys}
	default:
		return &timetravel{n: cfg.keys}
	}
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	tiny     bool // smoke-test sizes
}

// result is what one run reports.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var o options
	var traceN int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of each timed phase in seconds")
	flag.IntVar(&traceN, "trace", 0, "1 = add a traced phase and report per-layer metrics")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for engine files and span dumps")
	flag.Parse()
	o.trace = traceN == 1

	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames
	}
	total := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, name := range names {
		o.workload = name
		res, err := runWorkload(o, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		if len(names) == 1 {
			total = res
			break
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[name+"."+k] = v
		}
	}
	b, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// runWorkload sets up, measures, restarts and checks one workload,
// printing a line per metric to w.
func runWorkload(o options, w io.Writer) (result, error) {
	cfg, ok := configFor(o.workload, o.tiny)
	if !ok {
		return result{}, fmt.Errorf("unknown workload (want one of %s, or all)", strings.Join(workloadNames, ", "))
	}
	if o.seconds <= 0 {
		return result{}, fmt.Errorf("-seconds must be positive")
	}
	phase := time.Duration(o.seconds * float64(time.Second))
	dir := filepath.Join(o.out, fmt.Sprintf("data-%s-%d", o.workload, os.Getpid()))
	defer os.RemoveAll(dir)
	m := newMetrics()

	// Engine failures after setup do not stop the run: the first one is
	// kept as the run's failed check and the run goes on as far as it can.
	var ck firstErr

	// Setup: create, preload, first checkpoint — repeated, and the last
	// one kept for the timed phases.
	var v *env
	var wl workload
	var setupS []float64
	for i := 0; i < cfg.setups; i++ {
		if v != nil {
			ck.note("close after setup", v.close(nil))
		}
		t := time.Now()
		var err error
		v, err = createEnv(dir, cfg.pool, cfg.isTSB)
		if err != nil {
			return result{}, err
		}
		wl = newWorkload(o.workload, cfg)
		if err := wl.preload(v); err != nil {
			return result{}, err
		}
		if _, err := v.e.Checkpoint(); err != nil {
			return result{}, fmt.Errorf("first checkpoint: %w", err)
		}
		setupS = append(setupS, time.Since(t).Seconds())
	}
	allocated, err := v.store.AllocatedPages()
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(w, "context workload=%s seed=%d clients=%d keys=%d value_bytes=%d pool_frames=%d slot_bytes=%d dataset_pages=%d dataset_vs_pool=%.2f checkpoint_every_ops=%d sync=never go=%s nproc=%d gomaxprocs=%d\n",
		o.workload, o.seed, clients, cfg.keys, valueLen, cfg.pool, storage.DefaultSlotSize, allocated, float64(allocated)/float64(cfg.pool),
		cfg.ckptEvery, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))

	r := &runner{v: v, w: wl, ckptEvery: cfg.ckptEvery}
	for i := 0; i < clients; i++ {
		r.cl = append(r.cl, &client{id: i, g: newKeyGen(o.seed, i, cfg.keys), r: r})
	}

	// Warm-up: the background writer drains the preload's dirty pages and
	// the pool and Go heap settle before anything is timed.
	_, err = r.timed(min(phase/5, 2*time.Second), false)
	var p1, p2 phaseResult
	var before, after counters
	if err == nil {
		before = v.readCounters()
		p1, err = r.timed(phase, false)
		after = v.readCounters()
	}
	if err == nil && o.trace {
		// Half as long: spans are kept in memory, and the engine's
		// in-memory log grows with every operation.
		p2, err = r.timed(phase/2, true)
	}
	if err != nil {
		// The engine cannot be shut down under a blocked call: report the
		// run as failed with what was measured.
		ck.note("", r.checkErr())
		ck.note("timed phase", err)
		fmt.Fprintf(os.Stderr, "perfbench: %s: CHECK FAILED: %v\n", o.workload, ck.err)
		m.set("setup_s", medianF(setupS), "s")
		return result{Correct: false, Attempted: max(1, p1.sum(func(r *phaseRec) int64 { return r.attempted })),
			Failed: p1.sum(func(r *phaseRec) int64 { return r.failed }), Metrics: m.report(o.trace)}, nil
	}
	ck.note("", r.checkErr())

	heapAfterRun := heapMiB()

	// Structure checks and shape counts, outside any timing.
	var shapeHist, shapeCur int
	if v.tt != nil {
		v.tt.DrainCompletions()
		shape, err := v.tt.Verify()
		ck.note("tsb Verify", err)
		shapeHist, shapeCur = shape.HistoryNodes, shape.CurrentNodes
	} else {
		v.ct.DrainCompletions()
		_, err := v.ct.Verify()
		ck.note("core Verify", err)
	}
	allocatedEnd, err := v.store.AllocatedPages()
	ck.note("AllocatedPages", err)

	// Restarts: every page flushed and then a checkpoint first, so the log
	// the restarts replay does not depend on how far the timed phase got
	// past its last checkpoint or how far the page writer lagged behind it.
	_, err = v.e.FlushAll()
	ck.note("flush before restarts", err)
	_, err = v.e.Checkpoint()
	ck.note("final checkpoint", err)
	var rtr *tracer
	if o.trace {
		rtr = newTracer(time.Now(), clients)
	}
	var reopens []reopenTimes
	for i := 0; i < cfg.reopens && v != nil; i++ {
		rt, err := v.reopen(rtr)
		ck.note("close before restart", rt.closeErr)
		if err != nil {
			ck.note("restart", err)
			v = nil
			break
		}
		reopens = append(reopens, rt)
	}
	heapAfterRestart := heapMiB()
	if v != nil {
		ck.note("", wl.verify(v))
		ck.note("final close", v.close(nil))
	}
	liveKeys := int64(cfg.keys)
	if sc, ok := wl.(*scanCold); ok {
		for _, l := range sc.inserted {
			liveKeys += int64(len(l))
		}
	}
	onDisk, err := diskBytes(dir)
	if err != nil {
		return result{}, err
	}

	// End-to-end metrics, all from the untraced phase.
	m.set("setup_s", medianF(setupS), "s")
	m.set("ops_per_s", p1.opsPerSec(), "1/s")
	latencies(m, w, "commit", p1, func(r *phaseRec) []int64 { return r.commit })
	latencies(m, w, "read", p1, func(r *phaseRec) []int64 { return r.read })
	// reopen_s is the fastest restart. Restart time on this engine is
	// dominated by allocating log images as large as the absolute LSN,
	// whose page-fault cost swings by 2x from one restart to the next; the
	// fastest of several is the restart's own work.
	var reopenS []float64
	for _, rt := range reopens {
		reopenS = append(reopenS, rt.total().Seconds())
		fmt.Fprintf(w, "samples reopen close=%.4fs open=%.4fs analyze_redo=%.4fs tree_open=%.4fs undo=%.4fs\n",
			rt.close.Seconds(), rt.open.Seconds(), rt.analyzeRedo.Seconds(), rt.treeOpen.Seconds(), rt.undo.Seconds())
	}
	if len(reopenS) > 0 {
		m.set("reopen_s", slices.Min(reopenS), "s")
	} else {
		m.set("reopen_s", 0, "s")
	}
	m.set("space_amp", ratio(float64(onDisk), float64(liveKeys*userBytesPerWrite)), "ratio")

	// Per-layer metrics.
	attempted := p1.sum(func(r *phaseRec) int64 { return r.attempted })
	failed := p1.sum(func(r *phaseRec) int64 { return r.failed })
	m.set("failed_ratio", ratio(float64(failed), float64(attempted)), "ratio")
	m.set("client.attempted", float64(attempted), "count")
	m.set("client.failed", float64(failed), "count")
	latencies(m, w, "scan", p1, func(r *phaseRec) []int64 { return r.scan })
	latencies(m, w, "asof", p1, func(r *phaseRec) []int64 { return r.asof })
	latencies(m, w, "txn.commit", p1, func(r *phaseRec) []int64 { return r.commitCall })
	layerMetrics(m, before, after, phaseTotals{
		ops:       p1.sum(func(r *phaseRec) int64 { return r.done }),
		commits:   p1.sum(func(r *phaseRec) int64 { return r.commits }),
		txns:      p1.sum(func(r *phaseRec) int64 { return r.txns }),
		multigets: p1.sum(func(r *phaseRec) int64 { return r.multigets }),
		asofs:     p1.sum(func(r *phaseRec) int64 { return r.asofs }),
		userBytes: p1.sum(func(r *phaseRec) int64 { return r.writes }) * userBytesPerWrite,
	})
	m.set("tsb.history_nodes", float64(shapeHist), "count")
	m.set("tsb.current_nodes", float64(shapeCur), "count")
	m.set("txn.version_lag", ratio(float64(p1.sum(func(r *phaseRec) int64 { return r.lagSum })),
		float64(p1.sum(func(r *phaseRec) int64 { return r.lagN }))), "ticks")
	m.set("storage.allocated_pages", float64(allocatedEnd), "count")
	ckpt := sortedNs(p1.ckptNs)
	m.set("engine.checkpoint_ms_p50", quantile(ckpt, 0.5)/1e6, "ms")
	if len(ckpt) > 0 {
		m.set("engine.checkpoint_ms_max", float64(ckpt[len(ckpt)-1])/1e6, "ms")
	}
	m.set("engine.checkpoints", float64(len(ckpt)), "count")
	reopenMedian(m, reopens)
	m.set("engine.heap_after_run_mb", heapAfterRun, "MiB")
	m.set("engine.heap_after_restart_mb", heapAfterRestart, "MiB")

	if o.trace {
		attempted += p2.sum(func(r *phaseRec) int64 { return r.attempted })
		failed += p2.sum(func(r *phaseRec) int64 { return r.failed })
		if err := traceMetrics(m, o, p1, p2, append(p2.tracers, rtr)); err != nil {
			return result{}, err
		}
	}

	if ck.err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: CHECK FAILED: %v\n", o.workload, ck.err)
	}
	for _, name := range m.order {
		fmt.Fprintf(w, "metric %s %s %.6g %s\n", o.workload, name, m.vals[name], m.units[name])
	}

	return result{Correct: ck.err == nil, Attempted: attempted, Failed: failed, Metrics: m.report(o.trace)}, nil
}

// report picks the listed metrics: the per-layer ones for a traced run,
// else the end-to-end ones.
func (m *metrics) report(traced bool) map[string]metricValue {
	list := endToEnd
	if traced {
		list = perLayer
	}
	out := make(map[string]metricValue, len(list))
	for _, s := range list {
		out[s.name] = metricValue{Value: m.vals[s.name], Unit: s.unit}
	}
	return out
}

// heapMiB is the Go heap in use after a collection.
func heapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// firstErr keeps the first error it is handed.
type firstErr struct{ err error }

func (f *firstErr) note(what string, err error) {
	if err == nil || f.err != nil {
		return
	}
	if what != "" {
		err = fmt.Errorf("%s: %w", what, err)
	}
	f.err = err
}

// latencies sets <name>_p50_us, the median of all samples, and
// <name>_p99_us, the median of per-slice p99s (phaseResult.tail), and
// prints the sample counts behind them.
func latencies(m *metrics, w io.Writer, name string, p phaseResult, f func(*phaseRec) []int64) {
	all := p.samples(f)
	p99, slices := p.tail(f, 0.99)
	m.set(name+"_p50_us", quantile(all, 0.50)/1e3, "us")
	m.set(name+"_p99_us", p99/1e3, "us")
	if len(all) > 0 {
		fmt.Fprintf(w, "samples %s n=%d p99_slices=%d beyond_p99_per_slice=%d\n",
			name, len(all), slices, beyond(len(all)/slices, 0.99))
	}
}

// reopenMedian reports the restart steps of the median restart.
func reopenMedian(m *metrics, rs []reopenTimes) {
	if len(rs) == 0 {
		return
	}
	med := func(f func(reopenTimes) time.Duration) float64 {
		v := make([]float64, len(rs))
		for i, r := range rs {
			v[i] = f(r).Seconds()
		}
		return medianF(v)
	}
	m.set("engine.close_s", med(func(r reopenTimes) time.Duration { return r.close }), "s")
	m.set("engine.open_s", med(func(r reopenTimes) time.Duration { return r.open + r.treeOpen }), "s")
	m.set("recovery.analyze_redo_s", med(func(r reopenTimes) time.Duration { return r.analyzeRedo }), "s")
	m.set("recovery.undo_s", med(func(r reopenTimes) time.Duration { return r.undo }), "s")
	st := rs[0].stats
	m.set("recovery.analyzed_records", float64(st.AnalyzedRecords), "count")
	m.set("recovery.redone_records", float64(st.RedoneRecords), "count")
	m.set("recovery.fetch_skipped_pages", float64(st.FetchSkippedPages), "count")
}

// traceMetrics reports per-layer self time and call times from the
// traced phase, the tracing overhead against the untraced phase, and
// writes the spans out.
func traceMetrics(m *metrics, o options, p1, p2 phaseResult, tracers []*tracer) error {
	sum := summarize(tracers[:len(tracers)-1])
	ops := float64(p2.sum(func(r *phaseRec) int64 { return r.done }))
	for _, l := range traceLayers {
		m.set("trace."+l+"_self_us_per_op", ratio(float64(sum.selfNs[l])/1e3, ops), "us")
	}
	p50 := func(n spanName) float64 { return quantile(sum.durs[n], 0.5) / 1e3 }
	m.set("core.search_us", p50(spCoreSearch), "us")
	m.set("core.update_us", p50(spCoreUpdate), "us")
	m.set("core.multiget_us", p50(spCoreMultiGet), "us")
	m.set("core.rangescan_us", p50(spCoreRangeScan), "us")
	m.set("core.insert_us", p50(spCoreInsert), "us")
	m.set("tsb.put_us", p50(spTsbPut), "us")
	m.set("tsb.snapshot_get_us", p50(spTsbSnapshotGet), "us")
	m.set("tsb.scan_asof_us", p50(spTsbScanAsOf), "us")
	m.set("txn.snapshot_begin_us", p50(spSnapBegin), "us")
	m.set("trace.spans", float64(sum.spans), "count")

	delta := func(untraced, traced float64) float64 { return ratio(traced-untraced, untraced) * 100 }
	m.set("trace.ops_per_s_delta_pct", delta(p1.opsPerSec(), p2.opsPerSec()), "%")
	for _, name := range []string{"commit", "read"} {
		pick := func(r *phaseRec) []int64 { return r.commit }
		if name == "read" {
			pick = func(r *phaseRec) []int64 { return r.read }
		}
		m.set("trace."+name+"_p50_delta_pct",
			delta(quantile(p1.samples(pick), 0.5), quantile(p2.samples(pick), 0.5)), "%")
	}
	return writeSpans(filepath.Join(o.out, "spans-"+o.workload+".tsv.gz"), tracers)
}
