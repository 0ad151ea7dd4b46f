package storage

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/fault"
)

// waitPrefetch polls until the prefetcher has drained pid into the pool
// (or the deadline passes); the worker is asynchronous by design.
func waitPrefetch(t testing.TB, p *Pool, pid PageID) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if p.resident(pid) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("page %d never became resident via prefetch", pid)
}

func seedPrefetchPages(t testing.TB, p *Pool, lg *testLogger, n int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		dirtyPage(t, p, lg, PageID(i), []byte{byte(i)})
	}
	if _, err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
}

func TestPrefetchWarmsAndCounts(t *testing.T) {
	p, log, _ := newFaultyPool(4, 30)
	lg := &testLogger{log: log}
	seedPrefetchPages(t, p, lg, 8)
	// Evict everything so prefetches do real reads.
	for i := 1; i <= 8; i++ {
		p.Drop(PageID(i))
	}
	p.EnablePrefetch(4)
	defer p.StopPrefetch()

	p.PrefetchAsync(3, 4)
	waitPrefetch(t, p, 3)
	st := p.Stats()
	if st.PrefetchIssued != 1 {
		t.Fatalf("PrefetchIssued = %d, want 1", st.PrefetchIssued)
	}
	// The foreground fetch that consumes the warmed page counts as a hit
	// and reads the right bytes.
	f, err := p.Fetch(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Data.([]byte), []byte{3}) {
		t.Fatalf("prefetched page content %v", f.Data)
	}
	p.Unpin(f)
	if st := p.Stats(); st.PrefetchHit != 1 {
		t.Fatalf("PrefetchHit = %d, want 1", st.PrefetchHit)
	}
	// A second fetch of the same page is a plain hit, not a prefetch hit.
	f, _ = p.Fetch(3)
	p.Unpin(f)
	if st := p.Stats(); st.PrefetchHit != 1 {
		t.Fatalf("PrefetchHit moved to %d on a plain re-fetch", st.PrefetchHit)
	}

	// Prefetching a resident page is a no-op.
	p.PrefetchAsync(3, 4)
	time.Sleep(10 * time.Millisecond)
	if st := p.Stats(); st.PrefetchIssued != 1 {
		t.Fatalf("resident prefetch issued a read: %d", st.PrefetchIssued)
	}

	// NilPage and disabled-pool hints are dropped silently.
	p.PrefetchAsync(NilPage, 4)
	p.StopPrefetch()
	p.PrefetchAsync(5, 4)
	p.StopPrefetch() // idempotent
}

// TestPrefetchFaultDegradesToSyncFetch: a fault at pool.prefetch drops
// the read-ahead (counted wasted); the foreground fetch then reads the
// page itself and sees correct data.
func TestPrefetchFaultDegradesToSyncFetch(t *testing.T) {
	p, log, inj := newFaultyPool(4, 31)
	lg := &testLogger{log: log}
	seedPrefetchPages(t, p, lg, 4)
	for i := 1; i <= 4; i++ {
		p.Drop(PageID(i))
	}
	p.EnablePrefetch(2)
	defer p.StopPrefetch()

	inj.Arm(FPPoolPrefetch, fault.Spec{Kind: fault.Transient, Count: -1})
	p.PrefetchAsync(2, 2)
	deadline := time.Now().Add(2 * time.Second)
	for p.Stats().PrefetchWasted == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	st := p.Stats()
	if st.PrefetchWasted == 0 {
		t.Fatal("injected prefetch fault never counted as wasted")
	}
	if st.PrefetchIssued != 0 {
		t.Fatalf("faulted prefetch counted as issued: %d", st.PrefetchIssued)
	}
	if p.resident(2) {
		t.Fatal("faulted prefetch still warmed the page")
	}
	// The scan's own fetch does the read synchronously and correctly.
	f, err := p.Fetch(2)
	if err != nil {
		t.Fatalf("foreground fetch after prefetch fault: %v", err)
	}
	if !bytes.Equal(f.Data.([]byte), []byte{2}) {
		t.Fatalf("foreground fetch content %v", f.Data)
	}
	p.Unpin(f)
	if st := p.Stats(); st.PrefetchHit != 0 {
		t.Fatalf("degraded fetch counted as prefetch hit: %d", st.PrefetchHit)
	}
}

// TestPrefetchEvictedBeforeUseCountsWasted: a warmed page evicted before
// the scan reaches it moves the tag to the wasted counter.
func TestPrefetchEvictedBeforeUseCountsWasted(t *testing.T) {
	p, log, _ := newFaultyPool(2, 32)
	lg := &testLogger{log: log}
	seedPrefetchPages(t, p, lg, 6)
	for i := 1; i <= 6; i++ {
		p.Drop(PageID(i))
	}
	p.EnablePrefetch(2)
	defer p.StopPrefetch()

	p.PrefetchAsync(1, 2)
	waitPrefetch(t, p, 1)
	// Flood the tiny pool so the warmed frame is evicted unused.
	for i := 2; i <= 6; i++ {
		f, err := p.Fetch(PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(f)
	}
	st := p.Stats()
	if st.PrefetchWasted+st.PrefetchHit == 0 {
		t.Fatalf("warmed page neither hit nor wasted: %+v", st)
	}
}

// TestPrefetchRampRunBoundsReads: a hint carrying run r issues at most r
// reads down a cold chain, and a run at or past the window issues the
// full window — a long scan still earns its whole read-ahead.
func TestPrefetchRampRunBoundsReads(t *testing.T) {
	const window = 8
	for _, run := range []int{1, 2, 3, 5, window, window + 1, 100} {
		p := newChainPool(t, 32, 64)
		pf := &prefetcher{done: make(chan struct{}), depth: window}
		p.prefetchChain(prefetchHint{pid: 1, run: run}, pf)
		want := int64(min(run, window))
		if got := p.Stats().PrefetchIssued; got != want {
			t.Fatalf("run %d: chain issued %d reads, want %d", run, got, want)
		}
		for i := 1; i <= 32; i++ {
			if p.resident(PageID(i)) != (int64(i) <= want) {
				t.Fatalf("run %d: page %d resident=%v", run, i, p.resident(PageID(i)))
			}
		}
	}
}

// TestPrefetchRampLongScanReachesWindow drives the scan protocol — fetch
// leaf i, then hint leaf i+1 with run i — down a long cold chain. Once
// the scan has consumed a window's worth of leaves the read-ahead must
// run a full window past it, and it must carry the scan: most of its
// leaves arrive as prefetch hits.
func TestPrefetchRampLongScanReachesWindow(t *testing.T) {
	const window, n = 4, 12
	p := newChainPool(t, 64, 64)
	p.EnablePrefetch(window)
	defer p.StopPrefetch()
	for i := 1; i <= n; i++ {
		f, err := p.Fetch(PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(f)
		p.PrefetchAsync(PageID(i+1), i)
		// Give the worker the time a callback batch would.
		time.Sleep(2 * time.Millisecond)
	}
	waitPrefetch(t, p, PageID(n+window))
	if st := p.Stats(); st.PrefetchHit < n/2 {
		t.Fatalf("long scan: %d of %d leaves were prefetch hits (%+v)", st.PrefetchHit, n, st)
	}
}

// TestPrefetchRampShortScan: a scan over 2 leaves hints once, with run 1,
// so it issues at most 2 prefetch reads — not a window's worth of pages
// it will never reach.
func TestPrefetchRampShortScan(t *testing.T) {
	const window = 8
	p := newChainPool(t, 32, 64)
	p.EnablePrefetch(window)
	f, err := p.Fetch(1)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(f)
	p.PrefetchAsync(2, 1)
	waitPrefetch(t, p, 2)
	f, err = p.Fetch(2)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(f)
	// Let an over-eager chain run on before looking.
	time.Sleep(20 * time.Millisecond)
	p.StopPrefetch()
	if got := p.Stats().PrefetchIssued; got > 2 {
		t.Fatalf("2-leaf scan issued %d prefetch reads, want <= 2", got)
	}
	for i := 4; i <= 32; i++ {
		if p.resident(PageID(i)) {
			t.Fatalf("2-leaf scan warmed page %d", i)
		}
	}
}
