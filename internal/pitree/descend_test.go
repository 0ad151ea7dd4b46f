package pitree

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/latch"
	"repro/internal/storage"
	"repro/internal/wal"
)

// lineNode is a node of a toy one-dimensional node space: it directly
// contains [low, high), delegates keys from high on to right, and (at
// level 1) routes to the child whose term is the largest low <= k.
type lineNode struct {
	level     int
	low, high uint64
	right     storage.PageID
	terms     []lineTerm
	dead      bool
}

type lineTerm struct {
	low uint64
	pid storage.PageID
}

type lineSpace struct{ crossed atomic.Int64 }

func (*lineSpace) Level(n *lineNode) int { return n.level }
func (*lineSpace) Dead(n *lineNode) bool { return n.dead }
func (*lineSpace) Clone(n *lineNode) *lineNode {
	c := *n
	c.terms = append([]lineTerm(nil), n.terms...)
	return &c
}

func (*lineSpace) Route(n *lineNode, k uint64, down bool) (Step, storage.PageID) {
	if k >= n.high {
		if n.right == storage.NilPage {
			return Retry, storage.NilPage
		}
		return Sibling, n.right
	}
	if k < n.low {
		return Retry, storage.NilPage
	}
	if !down {
		return Here, storage.NilPage
	}
	for i := len(n.terms) - 1; i >= 0; i-- {
		if k >= n.terms[i].low {
			return Child, n.terms[i].pid
		}
	}
	return Retry, storage.NilPage
}

func (s *lineSpace) Crossed(*lineNode, storage.PageID, uint64, *Path, bool) { s.crossed.Add(1) }

// Pages of the toy tree: a level-1 root over leaves A = [0, 100) and
// B = [100, ∞). The root has no term for B yet, so a search for a key
// in B crosses A's side pointer, the intermediate state a split leaves
// until its posting completes.
const (
	rootPID storage.PageID = iota + 1
	leafA
	leafB
)

func newLineTree(t *testing.T, mortal, pessimistic bool) (*Tree[*lineNode, uint64], *lineSpace) {
	t.Helper()
	pool := storage.NewPool(1, storage.NewDisk(), wal.New(), nil, 0)
	nodes := map[storage.PageID]*lineNode{
		rootPID: {level: 1, high: math.MaxUint64, terms: []lineTerm{{0, leafA}}},
		leafA:   {high: 100, right: leafB},
		leafB:   {low: 100, high: math.MaxUint64},
	}
	for pid, n := range nodes {
		f, err := pool.Create(pid)
		if err != nil {
			t.Fatal(err)
		}
		f.Data = n
		pool.Unpin(f)
	}
	var hits, retries, fallbacks, restarts atomic.Int64
	sp := &lineSpace{}
	return &Tree[*lineNode, uint64]{
		Space: sp, Pool: pool, Root: rootPID, Name: "line",
		Mortal: mortal, Pessimistic: pessimistic, CheckLatchOrder: true,
		Counters: Counters{OptHits: &hits, OptRetries: &retries, OptFallbacks: &fallbacks, Restarts: &restarts},
	}, sp
}

// forEachMode runs fn under both mortality rules and both descents.
func forEachMode(t *testing.T, fn func(t *testing.T, mortal, pessimistic bool)) {
	for _, mortal := range []bool{false, true} {
		for _, pessimistic := range []bool{false, true} {
			name := map[bool]string{false: "immortal", true: "mortal"}[mortal] + "/" +
				map[bool]string{false: "optimistic", true: "latched"}[pessimistic]
			t.Run(name, func(t *testing.T) { fn(t, mortal, pessimistic) })
		}
	}
}

// TestDescendRoutesThroughSiblings: every descent lands on the node that
// directly contains its key, walking a side pointer (and calling the
// note hook) when the parent has no term for it yet, and records the
// index nodes it passed in the path.
func TestDescendRoutesThroughSiblings(t *testing.T) {
	forEachMode(t, func(t *testing.T, mortal, pessimistic bool) {
		tr, sp := newLineTree(t, mortal, pessimistic)
		for _, tc := range []struct {
			key     uint64
			want    storage.PageID
			crossed int64
		}{{5, leafA, 0}, {99, leafA, 0}, {100, leafB, 1}, {7000, leafB, 1}} {
			sp.crossed.Store(0)
			o := tr.NewOp(nil)
			path := NewPath()
			r, err := tr.Descend(o, tc.key, 0, latch.S, true, path)
			if err != nil {
				t.Fatalf("key %d: %v", tc.key, err)
			}
			if r.PID() != tc.want {
				t.Fatalf("key %d landed on page %d, want %d", tc.key, r.PID(), tc.want)
			}
			o.Release(&r)
			o.Done()
			if got := sp.crossed.Load(); got != tc.crossed {
				t.Fatalf("key %d: %d side walks noted, want %d", tc.key, got, tc.crossed)
			}
			if e, ok := path.Get(1); !ok || e.PID != rootPID {
				t.Fatalf("key %d: path level 1 = %+v, %v; want the root", tc.key, e, ok)
			}
		}
		// The root is the level-1 target, returned in the requested mode;
		// a level above the root does not exist.
		o := tr.NewOp(nil)
		r, err := tr.Descend(o, 5, 1, latch.U, false, nil)
		if err != nil {
			t.Fatalf("level-1 descent: %v", err)
		}
		if r.PID() != rootPID || r.Mode != latch.U {
			t.Fatalf("level-1 descent: page %d, mode %v; want the root in U", r.PID(), r.Mode)
		}
		o.Release(&r)
		if _, err := tr.Descend(o, 5, 2, latch.S, false, nil); !errors.Is(err, ErrLevelGone) {
			t.Fatalf("descent above the root: %v, want ErrLevelGone", err)
		}
		o.Done()
	})
}

// TestMortalStepRetriesOnDead: in a mortal tree a descent that lands on
// a node marked dead restarts instead of using it; an immortal tree
// never frees a node, so it never checks.
func TestMortalStepRetriesOnDead(t *testing.T) {
	forEachMode(t, func(t *testing.T, mortal, pessimistic bool) {
		tr, _ := newLineTree(t, mortal, pessimistic)
		f, err := tr.Pool.Fetch(leafB)
		if err != nil {
			t.Fatal(err)
		}
		f.Latch.AcquireX()
		f.Data.(*lineNode).dead = true
		f.Latch.ReleaseX()
		tr.Pool.Unpin(f)

		o := tr.NewOp(nil)
		defer o.Done()
		r, err := tr.Descend(o, 150, 0, latch.S, false, nil)
		if mortal {
			if !errors.Is(err, ErrRetry) {
				t.Fatalf("mortal descent onto a dead node: %v, want ErrRetry", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("immortal descent: %v", err)
		}
		if r.PID() != leafB {
			t.Fatalf("immortal descent landed on page %d, want %d", r.PID(), leafB)
		}
		o.Release(&r)
	})
}

// TestOptimisticDescentUnderWriter: readers descend optimistically while
// a writer keeps posting and removing B's index term under the root's X
// latch. Every reader must land on the right leaf whichever state it
// sees; run under -race, this also checks that the snapshot protocol
// never reads a node the writer is changing.
func TestOptimisticDescentUnderWriter(t *testing.T) {
	for _, mortal := range []bool{false, true} {
		tr, _ := newLineTree(t, mortal, false)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				f, err := tr.Pool.Fetch(rootPID)
				if err != nil {
					t.Error(err)
					return
				}
				f.Latch.AcquireX()
				n := f.Data.(*lineNode)
				if i%2 == 0 {
					n.terms = []lineTerm{{0, leafA}, {100, leafB}}
				} else {
					n.terms = []lineTerm{{0, leafA}}
				}
				f.Latch.ReleaseX()
				tr.Pool.Unpin(f)
			}
		}()
		var readers sync.WaitGroup
		for g := 0; g < 3; g++ {
			readers.Add(1)
			go func(g int) {
				defer readers.Done()
				for i := 0; i < 2000; i++ {
					k := uint64((i*37 + g) % 200)
					want := leafA
					if k >= 100 {
						want = leafB
					}
					o := tr.NewOp(nil)
					r, err := tr.Descend(o, k, 0, latch.S, false, nil)
					if err != nil {
						t.Errorf("key %d: %v", k, err)
						o.Done()
						return
					}
					if r.PID() != want {
						t.Errorf("key %d landed on page %d, want %d", k, r.PID(), want)
						o.Release(&r)
						o.Done()
						return
					}
					o.Release(&r)
					o.Done()
				}
			}(g)
		}
		readers.Wait()
		close(stop)
		wg.Wait()
		if tr.OptHits.Load() == 0 {
			t.Fatalf("mortal=%v: no descent was served from a snapshot", mortal)
		}
	}
}
