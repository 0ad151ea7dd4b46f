package main

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// window is the throughput sampling interval.
const window = 500 * time.Millisecond

// clients is the closed-loop client count: each client sends its next
// operation only after the previous one returns.
const clients = 2

// workload is one named input mix against one tree.
type workload interface {
	// preload fills a freshly created tree.
	preload(v *env) error
	// op runs one client operation: inputs are drawn before the timed
	// region, results are checked after it.
	op(c *client)
	// verify checks the tree after a restart against the oracle the
	// acknowledged writes built.
	verify(v *env) error
}

// userBytesPerWrite is the key plus value size of every write.
const userBytesPerWrite = 8 + valueLen

// phaseRec holds one client's samples for one timed phase.
type phaseRec struct {
	commit, commitCall, read, scan, asof []int64 // nanoseconds

	attempted, done, failed int64
	commits, txns           int64
	multigets, asofs        int64
	writes                  int64 // acknowledged key writes
	lagSum, lagN            int64
	firstFail               time.Duration // since phase start, when failed > 0
}

// client is one closed-loop caller.
type client struct {
	id  int
	g   *keyGen
	r   *runner
	tr  *tracer
	rec *phaseRec

	scratch  *scanScratch
	checkErr error    // first failed correctness check
	errs     []string // first few operation errors, for stderr
	seq      uint64   // writer sequence numbers issued
}

func (c *client) fail(err error) {
	if c.rec.failed == 0 {
		c.rec.firstFail = time.Since(c.r.phaseStart)
	}
	c.rec.failed++
	if len(c.errs) < 4 {
		c.errs = append(c.errs, err.Error())
	}
}

func (c *client) check(err error) {
	if err != nil && c.checkErr == nil {
		c.checkErr = err
	}
}

func (c *client) nextSeq() uint64 {
	c.seq++
	return writeID(c.id, c.seq)
}

// runner drives the clients over one engine.
type runner struct {
	v         *env
	w         workload
	ckptEvery int64
	cl        []*client

	phaseStart time.Time
	stop       atomic.Bool
	ops        atomic.Int64
	ckptErr    error
}

// phaseResult is one timed phase's merged samples.
type phaseResult struct {
	windows []float64 // completed operations per second, per window
	recs    []*phaseRec
	ckptNs  []int64
	tracers []*tracer
}

func (p phaseResult) sum(f func(*phaseRec) int64) int64 {
	var n int64
	for _, r := range p.recs {
		n += f(r)
	}
	return n
}

func (p phaseResult) samples(f func(*phaseRec) []int64) []int64 {
	parts := make([][]int64, len(p.recs))
	for i, r := range p.recs {
		parts[i] = f(r)
	}
	return sortedNs(parts...)
}

func (p phaseResult) opsPerSec() float64 { return medianF(p.windows) }

// tail is the median over consecutive slices of the phase of each
// slice's q-quantile. The slice count is the largest, up to maxSlices,
// that leaves every slice at least 10 samples beyond its quantile, so a
// stall moves only the slices it falls in. Each client's samples are in
// completion order, and slice i takes the i-th part of every client's.
func (p phaseResult) tail(f func(*phaseRec) []int64, q float64) (v float64, slices int) {
	n := 0
	for _, r := range p.recs {
		n += len(f(r))
	}
	k := min(maxSlices, int(float64(n)*(1-q)/10))
	if k < 1 {
		return quantile(p.samples(f), q), 1
	}
	vals := make([]float64, k)
	for i := range vals {
		parts := make([][]int64, len(p.recs))
		for c, r := range p.recs {
			s := f(r)
			parts[c] = s[i*len(s)/k : (i+1)*len(s)/k]
		}
		vals[i] = quantile(sortedNs(parts...), q)
	}
	return medianF(vals), k
}

const maxSlices = 10

// stopGrace is how long the clients get to return from their last call
// once a phase ends. A client still blocked after it is stuck inside the
// engine; the run is then reported as failed without waiting for it.
const stopGrace = 10 * time.Second

// timed runs every client for d and returns the phase's samples. With
// traced set, each client records spans around its calls.
func (r *runner) timed(d time.Duration, traced bool) (phaseResult, error) {
	r.stop.Store(false)
	res := phaseResult{recs: make([]*phaseRec, len(r.cl))}
	start := time.Now()
	r.phaseStart = start
	for i, c := range r.cl {
		c.rec = &phaseRec{}
		res.recs[i] = c.rec
		c.tr = nil
		if traced {
			c.tr = newTracer(start, c.id)
			res.tracers = append(res.tracers, c.tr)
		}
	}
	// Checkpoints run on their own goroutine, requested by whichever
	// client completes every ckptEvery-th operation: clients feel them
	// only through contention, as with a background checkpointer. A
	// request made while one is still pending is merged into it.
	var ckptTr *tracer
	if traced {
		ckptTr = newTracer(start, len(r.cl))
		res.tracers = append(res.tracers, ckptTr)
	}
	ckpt := make(chan struct{}, 1)
	ckptDone := make(chan struct{})
	var ckptNs []int64
	go func() {
		defer close(ckptDone)
		for range ckpt {
			ckptNs = append(ckptNs, r.checkpoint(ckptTr))
		}
	}()

	var wg sync.WaitGroup
	for _, c := range r.cl {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for !r.stop.Load() {
				done := c.rec.done
				r.w.op(c)
				if c.rec.done > done && r.ops.Add(1)%r.ckptEvery == 0 {
					select {
					case ckpt <- struct{}{}:
					default:
					}
				}
			}
		}(c)
	}
	// The sampler reads the completed-operation count at every window
	// boundary; throughput is the median of the window rates.
	base := r.ops.Load()
	tick := time.NewTicker(window)
	for end := start.Add(d); time.Until(end) > window/2; {
		<-tick.C
		n := r.ops.Load()
		res.windows = append(res.windows, float64(n-base)/window.Seconds())
		base = n
	}
	tick.Stop()
	r.stop.Store(true)
	stopped := make(chan struct{})
	go func() {
		wg.Wait()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(stopGrace):
		return res, fmt.Errorf("a client was still inside an engine call %v after the phase ended", stopGrace)
	}
	close(ckpt)
	<-ckptDone
	res.ckptNs = ckptNs
	for _, c := range r.cl {
		c.tr = nil
		if c.rec.failed > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: client %d: %d of %d operations failed, the first %.2fs into the phase: %s\n",
				c.id, c.rec.failed, c.rec.attempted, c.rec.firstFail.Seconds(), strings.Join(c.errs, "; "))
		}
	}
	return res, nil
}

// checkpoint runs one checkpoint and returns its duration.
func (r *runner) checkpoint(tr *tracer) int64 {
	s := tr.begin(spCheckpoint)
	t := time.Now()
	_, err := r.v.e.Checkpoint()
	d := time.Since(t)
	tr.end(s)
	if err != nil && r.ckptErr == nil {
		r.ckptErr = fmt.Errorf("checkpoint: %w", err)
	}
	return int64(d)
}

func (r *runner) checkErr() error {
	if r.ckptErr != nil {
		return r.ckptErr
	}
	for _, c := range r.cl {
		if c.checkErr != nil {
			return fmt.Errorf("client %d: %w", c.id, c.checkErr)
		}
	}
	return nil
}
