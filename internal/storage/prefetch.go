package storage

import "sync"

// FPPoolPrefetch is the failpoint probed before every asynchronous
// read-ahead issued by the pool's prefetcher. A fault here only drops the
// prefetch (counted as wasted): the foreground Fetch that follows repeats
// the read synchronously and reports any real error itself, so an
// injected prefetch fault degrades scans to synchronous fetching and can
// never surface wrong data.
const FPPoolPrefetch = "pool.prefetch"

// prefetcher is the pool's bounded-window async read-ahead worker. Scans
// feed it leaf successor hints (the next leaf's page ID, known from the
// current leaf's side pointer). A single-step hint arrives only a
// callback's width ahead of the foreground fetch — too late to hide a
// disk read — so the worker treats each hint as a chain seed: it walks
// the side-pointer chain (via the codec's SuccessorHint, when the codec
// provides one) past the scan's position, reading ahead of the
// foreground rather than trailing it. How far it reads ramps with the
// scan: a hint carries the number of leaves its scan has consumed, and
// the chain issues at most that many reads, capped by `depth` — a scan
// must prove it is long before it earns a long read-ahead, so a short
// scan does not pay for a window of pages it will never reach. Hints
// that arrive while the worker is mid-chain are dropped rather than
// queued — read-ahead is advisory and must never apply backpressure to
// the scan driving it.
type prefetcher struct {
	req   chan prefetchHint
	done  chan struct{}
	depth int
	wg    sync.WaitGroup
}

// prefetchHint is one read-ahead request: the scan's next page and how
// many pages the scan has consumed so far.
type prefetchHint struct {
	pid PageID
	run int
}

// EnablePrefetch starts the pool's async prefetcher with the given
// request-window size. Idempotent: enabling an already-enabled pool is a
// no-op. window <= 0 leaves prefetching disabled. Must be called before
// the pool is used concurrently (engine wiring calls it at store attach).
func (p *Pool) EnablePrefetch(window int) {
	if window <= 0 || p.pf != nil {
		return
	}
	pf := &prefetcher{
		req:   make(chan prefetchHint, window),
		done:  make(chan struct{}),
		depth: window,
	}
	p.pf = pf
	pf.wg.Add(1)
	go func() {
		defer pf.wg.Done()
		for {
			select {
			case <-pf.done:
				return
			case h := <-pf.req:
				// Drain to the newest hint: queued hints are stale
				// position fixes from leaves the scan already passed,
				// and a chain from a stale seed spends its whole step
				// budget re-walking warmed ground without ever reaching
				// the frontier. Only the latest position is worth
				// chaining from.
			drain:
				for {
					select {
					case h = <-pf.req:
					default:
						break drain
					}
				}
				p.prefetchChain(h, pf)
			}
		}
	}()
}

// StopPrefetch stops the prefetcher and waits for its in-flight read to
// finish. Idempotent; safe on a pool that never enabled prefetching.
func (p *Pool) StopPrefetch() {
	pf := p.pf
	if pf == nil {
		return
	}
	p.pf = nil
	close(pf.done)
	pf.wg.Wait()
}

// PrefetchAsync requests an async read-ahead starting at pid, the next
// page of a scan that has consumed run pages so far: at most run reads
// are issued (capped by the prefetch window), so read-ahead ramps up
// with the scan's length. Non-blocking: with prefetching disabled, pid
// nil, run < 1, or the window full, the hint is dropped.
func (p *Pool) PrefetchAsync(pid PageID, run int) {
	pf := p.pf
	if pf == nil || pid == NilPage || run < 1 {
		return
	}
	select {
	case pf.req <- prefetchHint{pid: pid, run: run}:
	default:
		// Window full: the worker is behind; dropping the hint just means
		// the scan's own fetch does the read synchronously.
	}
}

// prefetchChain services one read-ahead request: starting from the
// hinted page, walk the side-pointer chain and read pages in until the
// hint's budget — its run, capped at pf.depth — has been issued. Pages
// already resident are walked through free — they don't consume the
// read budget — so a hint from a scan whose recent span is still
// buffered skips to the cold frontier and then runs its budget of reads
// PAST it; this is what actually puts the worker ahead of the
// foreground (a budget that counted resident skips would exhaust itself
// re-covering warmed ground and never lead the scan by more than a
// page). The step cap — total walk
// length, resident or not — bounds how far the frontier can run ahead
// of the scan: each hint is a fresh position fix, and capping the walk
// at twice the budget keeps the lead inside the pool's ability to hold
// warmed pages until the scan arrives (an uncapped walk laps the scan
// and its pages are evicted unconsumed). The walk also stops at the
// chain's end, at the first failed read, or when the codec cannot
// supply successors (chain length 1 — the single-page behavior).
func (p *Pool) prefetchChain(h prefetchHint, pf *prefetcher) {
	budget := min(h.run, pf.depth)
	pid, issued := h.pid, 0
	for steps := 0; issued < budget && steps < budget*2 && pid != NilPage; steps++ {
		select {
		case <-pf.done:
			return
		default:
		}
		next, didIO, ok := p.warmOne(pid)
		if !ok {
			return
		}
		if didIO {
			issued++
		}
		pid = next
	}
}

// warmOne makes pid resident (reading it from disk if needed) and
// returns its successor page for the chain walk. A page read here is
// tagged so the foreground fetch that consumes it counts as a prefetch
// hit. A failed read (injected or real) only counts as wasted — the
// foreground path repeats it and owns the error. didIO reports whether
// a read was issued; ok is false when the walk cannot continue (read
// failed or faulted).
func (p *Pool) warmOne(pid PageID) (next PageID, didIO, ok bool) {
	f := p.peek(pid)
	if f == nil {
		if err := p.inj.Check(FPPoolPrefetch); err != nil {
			p.prefetchWasted.Add(1)
			return NilPage, false, false
		}
		p.prefetchIssued.Add(1)
		didIO = true
		var err error
		// Warm mode tags the loading placeholder before the read, so a
		// foreground fetch overlapping the read still counts as a hit.
		f, err = p.fetch(pid, true)
		if err != nil {
			p.prefetchWasted.Add(1)
			return NilPage, true, false
		}
	}
	next = NilPage
	if sc, chains := p.codec.(SuccessorCodec); chains {
		// The successor lives in the decoded page, which writers mutate
		// under the frame's X latch; a brief S hold makes the read safe.
		f.Latch.AcquireS()
		next = sc.SuccessorHint(f.Data)
		f.Latch.ReleaseS()
	}
	p.Unpin(f)
	return next, didIO, true
}

// resident reports whether pid is currently buffered, without pinning or
// loading it. Advisory: the answer can go stale immediately.
func (p *Pool) resident(pid PageID) bool {
	if p.cap == 0 {
		return p.ftab.get(pid) != nil
	}
	sh := p.shard(pid)
	sh.mu.Lock()
	_, ok := sh.frames[pid]
	sh.mu.Unlock()
	return ok
}

// peek returns pid's frame, pinned, if it is already resident and fully
// loaded — without touching hit or prefetch accounting (the walk is
// bookkeeping-invisible when it does no I/O). nil when the page is
// absent or a concurrent fetch is still loading it.
func (p *Pool) peek(pid PageID) *Frame {
	if p.cap == 0 {
		if f := p.ftab.get(pid); f != nil {
			f.pins.Add(1)
			return f
		}
		return nil
	}
	sh := p.shard(pid)
	sh.mu.Lock()
	f, ok := sh.frames[pid]
	if !ok || f.loading {
		sh.mu.Unlock()
		return nil
	}
	f.pins.Add(1)
	sh.mu.Unlock()
	return f
}
