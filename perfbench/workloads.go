package main

import (
	"bytes"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/keys"
)

// preloadBatch is the MultiPut batch size used to fill a tree.
const preloadBatch = 256

// preload writes keyOf(0..n-1) with sequence 0 through put, in batches.
func preload(n int, keyOf func(i int) uint64, put func(ks []keys.Key, vs [][]byte) error) error {
	ks := make([]keys.Key, 0, preloadBatch)
	vs := make([][]byte, 0, preloadBatch)
	bufs := make([][valueLen]byte, preloadBatch)
	for i := 0; i < n; i++ {
		k := keyOf(i)
		ks = append(ks, keys.Uint64(k))
		vs = append(vs, makeValue(bufs[len(vs)][:], k, 0))
		if len(ks) == preloadBatch || i == n-1 {
			if err := put(ks, vs); err != nil {
				return fmt.Errorf("preload: %w", err)
			}
			ks, vs = ks[:0], vs[:0]
		}
	}
	return nil
}

// ---- oltp-zipf -------------------------------------------------------

// oltp: each transaction reads two and updates two zipf-skewed keys of a
// preloaded core tree, then commits. Keys 0..n-1.
type oltp struct {
	n      int
	ticket atomic.Uint64
	acks   [clients][]ackedWrite
}

// ackedWrite is one key write of a committed transaction. ticket orders
// conflicting transactions: it is drawn after the transaction's last
// update, while it still holds the X locks of every key it wrote.
type ackedWrite struct{ key, seq, ticket uint64 }

type access struct {
	key    uint64
	update bool
}

func (w *oltp) preload(v *env) error {
	return preload(w.n, func(i int) uint64 { return uint64(i) }, func(ks []keys.Key, vs [][]byte) error {
		return v.ct.MultiPut(nil, ks, vs)
	})
}

func (w *oltp) op(c *client) {
	g, t, tr := c.g, c.r.v.ct, c.tr
	var acc [4]access
	acc[0] = access{g.zipfKey(), false}
	acc[1] = access{g.zipfKey(), false}
	acc[2] = access{g.zipfKey(), true}
	acc[3] = access{g.zipfKey(), true}
	// Every transaction locks in ascending key order, updates before
	// reads of the same key, so no lock-wait cycle (and no S-to-X
	// conversion) can form between two transactions.
	for i := 1; i < len(acc); i++ {
		for j := i; j > 0 && (acc[j].key < acc[j-1].key || acc[j].key == acc[j-1].key && acc[j].update && !acc[j-1].update); j-- {
			acc[j], acc[j-1] = acc[j-1], acc[j]
		}
	}
	var ks [4]keys.Key
	var vals [4][]byte
	var seqs [4]uint64
	var found [4]bool
	var vbuf [4][valueLen]byte
	for i := range acc {
		ks[i] = keys.Uint64(acc[i].key)
		if acc[i].update {
			seqs[i] = c.nextSeq()
			vals[i] = makeValue(vbuf[i][:], acc[i].key, seqs[i])
		}
	}
	c.rec.attempted++
	c.rec.txns++

	t0 := time.Now()
	root := tr.begin(spOp)
	s := tr.begin(spTxnBegin)
	tx := c.r.v.e.TM.Begin()
	tr.end(s)
	var readNs time.Duration
	var err error
	for i := range acc {
		if acc[i].update {
			s = tr.begin(spCoreUpdate)
			err = t.Update(tx, ks[i], vals[i])
			tr.end(s)
		} else {
			ta := time.Now()
			s = tr.begin(spCoreSearch)
			vals[i], found[i], err = t.SearchInto(tx, ks[i], vbuf[i][:0])
			tr.end(s)
			readNs += time.Since(ta)
		}
		if err != nil {
			break
		}
	}
	if err != nil {
		s = tr.begin(spTxnAbort)
		aerr := tx.Abort()
		tr.end(s)
		tr.end(root)
		c.fail(err)
		if aerr != nil {
			c.check(fmt.Errorf("abort after %v: %w", err, aerr))
		}
		return
	}
	t1 := time.Now()
	ticket := w.ticket.Add(1)
	t2 := time.Now()
	s = tr.begin(spTxnCommit)
	err = tx.Commit()
	tr.end(s)
	t3 := time.Now()
	tr.end(root)
	if err != nil {
		c.fail(err)
		return
	}
	c.rec.done++
	c.rec.commits++
	c.rec.commit = append(c.rec.commit, int64(t1.Sub(t0)+t3.Sub(t2)))
	c.rec.commitCall = append(c.rec.commitCall, int64(t3.Sub(t2)))
	c.rec.read = append(c.rec.read, int64(readNs))

	for i := range acc {
		if acc[i].update {
			w.acks[c.id] = append(w.acks[c.id], ackedWrite{acc[i].key, seqs[i], ticket})
			c.rec.writes++
			continue
		}
		if !found[i] {
			c.check(fmt.Errorf("SearchInto: preloaded key %d not found", acc[i].key))
			continue
		}
		_, cerr := checkValue(acc[i].key, vals[i])
		c.check(cerr)
	}
}

// expected is the value sequence every key must hold after a restart:
// per key, the write of the committed transaction with the latest ticket.
func (w *oltp) expected() []uint64 {
	exp := make([]uint64, w.n)
	last := make([]uint64, w.n)
	for _, acks := range w.acks {
		for _, a := range acks {
			if a.ticket > last[a.key] || a.ticket == last[a.key] && a.seq > exp[a.key] {
				last[a.key], exp[a.key] = a.ticket, a.seq
			}
		}
	}
	return exp
}

func (w *oltp) verify(v *env) error {
	exp := w.expected()
	next := uint64(0)
	var verr error
	err := v.ct.RangeScan(nil, nil, nil, func(k keys.Key, val []byte) bool {
		key := keyNum(k)
		if key != next {
			verr = fmt.Errorf("after restart: key %d where %d was expected", key, next)
			return false
		}
		seq, err := checkValue(key, val)
		if err == nil && seq != exp[key] {
			err = fmt.Errorf("after restart: key %d holds write %#x, last acknowledged was %#x", key, seq, exp[key])
		}
		verr = err
		next++
		return err == nil
	})
	if err != nil {
		return err
	}
	if verr == nil && next != uint64(w.n) {
		verr = fmt.Errorf("after restart: %d keys, want %d", next, w.n)
	}
	return verr
}

// ---- scan-cold -------------------------------------------------------

// scanCold: a core tree preloaded with the even keys 0, 2, .., 2(n-1),
// several times the buffer pool. 80% RangeScan of 100 keys, 15% MultiGet
// of 16 keys, 5% Insert of a new odd key.
type scanCold struct {
	n        int
	inserted [clients][]ackedWrite
}

const (
	scanLen  = 100
	multiLen = 16
)

func (w *scanCold) preload(v *env) error {
	return preload(w.n, func(i int) uint64 { return 2 * uint64(i) }, func(ks []keys.Key, vs [][]byte) error {
		return v.ct.MultiPut(nil, ks, vs)
	})
}

func (w *scanCold) op(c *client) {
	p := c.g.percent()
	switch {
	case p < 80:
		w.scan(c)
	case p < 95:
		w.multiGet(c)
	default:
		w.insert(c)
	}
}

// collector gathers the first limit records a scan callback is handed.
type collector struct {
	ks    []uint64
	vs    [][]byte
	limit int
}

func (col *collector) reset(limit int) { col.ks, col.vs, col.limit = col.ks[:0], col.vs[:0], limit }

func (col *collector) add(k keys.Key, v []byte) bool {
	col.ks = append(col.ks, keyNum(k))
	col.vs = append(col.vs, v)
	return len(col.ks) < col.limit
}

// checkRun verifies a scan result: limit records, strictly ascending, the
// first at or after lo, and every key of stride from lo on present (keys
// between them may be extra inserted keys).
func (col *collector) checkRun(lo, stride uint64) error {
	if len(col.ks) != col.limit {
		return fmt.Errorf("scan from %d returned %d records, want %d", lo, len(col.ks), col.limit)
	}
	nextBase := lo
	for i, k := range col.ks {
		if i > 0 && k <= col.ks[i-1] {
			return fmt.Errorf("scan from %d: key %d after %d", lo, k, col.ks[i-1])
		}
		if k%stride == lo%stride {
			if k != nextBase {
				return fmt.Errorf("scan from %d: key %d where %d was expected", lo, k, nextBase)
			}
			nextBase += stride
		} else if k < lo {
			return fmt.Errorf("scan from %d returned key %d", lo, k)
		}
		if _, err := checkValue(k, col.vs[i]); err != nil {
			return err
		}
	}
	return nil
}

type scanScratch struct {
	col   collector
	fn    func(keys.Key, []byte) bool
	ks    []keys.Key
	vals  [][]byte
	found []bool
}

func scratchOf(c *client) *scanScratch {
	if c.scratch == nil {
		s := &scanScratch{
			ks:    make([]keys.Key, multiLen),
			vals:  make([][]byte, multiLen),
			found: make([]bool, multiLen),
		}
		s.fn = s.col.add
		c.scratch = s
	}
	return c.scratch
}

func (w *scanCold) scan(c *client) {
	sc := scratchOf(c)
	lo := 2 * c.g.uniform(uint64(w.n-scanLen+1))
	lok := keys.Uint64(lo)
	sc.col.reset(scanLen)
	c.rec.attempted++

	t0 := time.Now()
	root := c.tr.begin(spOp)
	s := c.tr.begin(spCoreRangeScan)
	err := c.r.v.ct.RangeScan(nil, lok, nil, sc.fn)
	c.tr.end(s)
	c.tr.end(root)
	d := time.Since(t0)
	if err != nil {
		c.fail(err)
		return
	}
	c.rec.done++
	c.rec.scan = append(c.rec.scan, int64(d))
	c.check(sc.col.checkRun(lo, 2))
}

func (w *scanCold) multiGet(c *client) {
	sc := scratchOf(c)
	var picked [multiLen]uint64
	for i := 0; i < multiLen; {
		k := c.g.uniform(uint64(w.n))
		if slices.Contains(picked[:i], k) {
			continue
		}
		picked[i] = k
		sc.ks[i] = keys.Uint64(2 * k)
		i++
	}
	c.rec.attempted++
	c.rec.multigets++

	t0 := time.Now()
	root := c.tr.begin(spOp)
	s := c.tr.begin(spCoreMultiGet)
	err := c.r.v.ct.MultiGet(nil, sc.ks, sc.vals, sc.found)
	c.tr.end(s)
	c.tr.end(root)
	d := time.Since(t0)
	if err != nil {
		c.fail(err)
		return
	}
	c.rec.done++
	c.rec.read = append(c.rec.read, int64(d))
	for i, k := range picked {
		if !sc.found[i] {
			c.check(fmt.Errorf("MultiGet: preloaded key %d not found", 2*k))
			continue
		}
		_, err := checkValue(2*k, sc.vals[i])
		c.check(err)
	}
}

func (w *scanCold) insert(c *client) {
	// Client c inserts the odd keys 2j+1 for j = c, c+clients, ...,
	// scrambled over the key space so inserts split leaves everywhere.
	// c.seq counts this client's insert attempts.
	j := uint64(c.id) + uint64(clients)*c.seq
	key := 2*scrambleN(j, uint64(w.n)) + 1
	seq := c.nextSeq()
	var vbuf [valueLen]byte
	val := makeValue(vbuf[:], key, seq)
	k := keys.Uint64(key)
	c.rec.attempted++

	t0 := time.Now()
	root := c.tr.begin(spOp)
	s := c.tr.begin(spCoreInsert)
	err := c.r.v.ct.Insert(nil, k, val)
	c.tr.end(s)
	c.tr.end(root)
	d := time.Since(t0)
	if err != nil {
		c.fail(err)
		return
	}
	c.rec.done++
	c.rec.writes++
	c.rec.commit = append(c.rec.commit, int64(d))
	w.inserted[c.id] = append(w.inserted[c.id], ackedWrite{key: key, seq: seq})
}

func (w *scanCold) verify(v *env) error {
	ins := make(map[uint64]uint64)
	for _, l := range w.inserted {
		for _, a := range l {
			ins[a.key] = a.seq
		}
	}
	nextBase, count := uint64(0), 0
	var verr error
	err := v.ct.RangeScan(nil, nil, nil, func(k keys.Key, val []byte) bool {
		key := keyNum(k)
		count++
		seq, err := checkValue(key, val)
		switch {
		case err != nil:
		case key%2 == 0 && key != nextBase:
			err = fmt.Errorf("after restart: key %d where %d was expected", key, nextBase)
		case key%2 == 0 && seq != 0:
			err = fmt.Errorf("after restart: preloaded key %d holds write %#x", key, seq)
		case key%2 == 1:
			if want, ok := ins[key]; !ok || want != seq {
				err = fmt.Errorf("after restart: key %d holds write %#x, acknowledged %#x (acked=%v)", key, seq, want, ok)
			}
		}
		if key%2 == 0 {
			nextBase += 2
		}
		verr = err
		return err == nil
	})
	if err != nil {
		return err
	}
	if want := w.n + len(ins); verr == nil && count != want {
		verr = fmt.Errorf("after restart: %d keys, want %d", count, want)
	}
	return verr
}

// ---- timetravel ------------------------------------------------------

// timetravel: a TSB tree with version GC, preloaded with keys 0..n-1.
// Client 0 writes (4 Puts of zipf keys per transaction); client 1 reads
// lock-free: 70% a snapshot group of 8 SnapshotGets, 30% a 100-key
// ScanAsOf at a uniform past time since setup.
type timetravel struct {
	n      int
	t0     uint64   // version time at the end of setup
	oracle []uint64 // last acknowledged sequence per key (single writer)
}

const snapGets = 8

func (w *timetravel) preload(v *env) error {
	err := preload(w.n, func(i int) uint64 { return uint64(i) }, func(ks []keys.Key, vs [][]byte) error {
		return v.tt.MultiPut(nil, ks, vs)
	})
	w.t0 = v.tt.Now()
	w.oracle = make([]uint64, w.n)
	return err
}

func (w *timetravel) op(c *client) {
	if c.id == 0 {
		w.write(c)
		return
	}
	if c.g.percent() < 70 {
		w.snapshotRead(c)
	} else {
		w.scanAsOf(c)
	}
}

func (w *timetravel) write(c *client) {
	t, tr := c.r.v.tt, c.tr
	var ks [4]uint64
	var seqs [4]uint64
	var vbuf [4][valueLen]byte
	var vals [4][]byte
	var kk [4]keys.Key
	for i := range ks {
		ks[i] = c.g.zipfKey()
		seqs[i] = c.nextSeq()
		vals[i] = makeValue(vbuf[i][:], ks[i], seqs[i])
		kk[i] = keys.Uint64(ks[i])
	}
	c.rec.attempted++
	c.rec.txns++

	t0 := time.Now()
	root := tr.begin(spOp)
	s := tr.begin(spTxnBegin)
	tx := c.r.v.e.TM.Begin()
	tr.end(s)
	var err error
	for i := range kk {
		s = tr.begin(spTsbPut)
		err = t.Put(tx, kk[i], vals[i])
		tr.end(s)
		if err != nil {
			break
		}
	}
	if err != nil {
		s = tr.begin(spTxnAbort)
		aerr := tx.Abort()
		tr.end(s)
		tr.end(root)
		c.fail(err)
		if aerr != nil {
			c.check(fmt.Errorf("abort after %v: %w", err, aerr))
		}
		return
	}
	t1 := time.Now()
	s = tr.begin(spTxnCommit)
	err = tx.Commit()
	tr.end(s)
	t2 := time.Now()
	tr.end(root)
	if err != nil {
		c.fail(err)
		return
	}
	c.rec.done++
	c.rec.commits++
	c.rec.writes += int64(len(ks))
	c.rec.commit = append(c.rec.commit, int64(t2.Sub(t0)))
	c.rec.commitCall = append(c.rec.commitCall, int64(t2.Sub(t1)))
	for i, k := range ks {
		w.oracle[k] = seqs[i]
	}
	if oldest, newest := c.r.v.e.TM.Watermarks(); oldest != 0 {
		lag := int64(newest) - int64(oldest)
		if lag < 0 {
			lag = 0
		}
		c.rec.lagSum += lag
		c.rec.lagN++
	}
}

func (w *timetravel) snapshotRead(c *client) {
	t, tr := c.r.v.tt, c.tr
	var ks [snapGets]uint64
	var kk [snapGets]keys.Key
	var vbuf [snapGets][valueLen]byte
	var vals [snapGets][]byte
	var found [snapGets]bool
	for i := range ks {
		ks[i] = c.g.zipfKey()
		kk[i] = keys.Uint64(ks[i])
	}
	c.rec.attempted++

	t0 := time.Now()
	root := tr.begin(spOp)
	s := tr.begin(spSnapBegin)
	snap := c.r.v.e.BeginSnapshot()
	tr.end(s)
	var err error
	for i := range kk {
		s = tr.begin(spTsbSnapshotGet)
		vals[i], found[i], err = t.SnapshotGet(snap, kk[i], vbuf[i][:0])
		tr.end(s)
		if err != nil {
			break
		}
	}
	t1 := time.Now()
	// Repeatable read under one snapshot, checked outside the timing.
	if err == nil {
		var again [valueLen]byte
		for i := range kk {
			v2, f2, err2 := t.SnapshotGet(snap, kk[i], again[:0])
			switch {
			case err2 != nil:
				c.check(fmt.Errorf("SnapshotGet re-read: %w", err2))
			case !found[i] || !f2:
				c.check(fmt.Errorf("SnapshotGet: preloaded key %d not found", ks[i]))
			case !bytes.Equal(v2, vals[i]):
				c.check(fmt.Errorf("snapshot %d: key %d read %q then %q", snap.TS(), ks[i], vals[i], v2))
			default:
				_, cerr := checkValue(ks[i], vals[i])
				c.check(cerr)
			}
		}
	}
	t2 := time.Now()
	s = tr.begin(spSnapRelease)
	snap.Release()
	tr.end(s)
	tr.end(root)
	d := t1.Sub(t0) + time.Since(t2)
	if err != nil {
		c.fail(err)
		return
	}
	c.rec.done++
	c.rec.read = append(c.rec.read, int64(d))
}

func (w *timetravel) scanAsOf(c *client) {
	sc := scratchOf(c)
	lo := c.g.uniform(uint64(w.n - scanLen + 1))
	lok := keys.Uint64(lo)
	at := w.t0 + c.g.uniform(c.r.v.tt.Now()-w.t0+1)
	sc.col.reset(scanLen)
	c.rec.attempted++
	c.rec.asofs++

	t0 := time.Now()
	root := c.tr.begin(spOp)
	s := c.tr.begin(spTsbScanAsOf)
	err := c.r.v.tt.ScanAsOf(at, lok, nil, sc.fn)
	c.tr.end(s)
	c.tr.end(root)
	d := time.Since(t0)
	if err != nil {
		c.fail(err)
		return
	}
	c.rec.done++
	c.rec.asof = append(c.rec.asof, int64(d))
	c.check(sc.col.checkRun(lo, 1))
}

func (w *timetravel) verify(v *env) error {
	next := uint64(0)
	var verr error
	err := v.tt.ScanAsOf(v.tt.Now(), nil, nil, func(k keys.Key, val []byte) bool {
		key := keyNum(k)
		if key != next {
			verr = fmt.Errorf("after restart: key %d where %d was expected", key, next)
			return false
		}
		seq, err := checkValue(key, val)
		if err == nil && seq != w.oracle[key] {
			err = fmt.Errorf("after restart: key %d holds write %#x, last acknowledged was %#x", key, seq, w.oracle[key])
		}
		verr = err
		next++
		return err == nil
	})
	if err != nil {
		return err
	}
	if verr == nil && next != uint64(w.n) {
		verr = fmt.Errorf("after restart: %d keys, want %d", next, w.n)
	}
	return verr
}
