package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// farHorizon is a recycle horizon far beyond any log a test could write:
// a restart that sized anything by the absolute LSN would have to
// allocate 64 GiB.
const farHorizon = 1 << 36

// windowBudget bounds what each restart step may allocate for a window
// of a few KiB: one 64 KiB log segment, the segment directory, the
// window itself and incidental slack.
const windowBudget = 1 << 20

// allocated runs fn and returns the bytes the heap allocated meanwhile.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// writeFarLog lays out, by hand, the files of a long-lived log whose
// recycle horizon is farHorizon: a master record carrying the horizon
// and a checkpoint anchor at it, and one segment holding n records that
// start at the horizon. It returns the record LSNs and the log end.
func writeFarLog(t *testing.T, dir string, n int) ([]LSN, LSN) {
	t.Helper()
	const segCap = DefaultSegmentSize
	pos := LSN(farHorizon)
	var data []byte
	var lsns []LSN
	for i := 0; i < n; i++ {
		r := Record{LSN: pos, Type: RecUpdate, TxnID: TxnID(i + 1), StoreID: 1, PageID: uint64(i + 2),
			Payload: []byte(strings.Repeat("w", 10+i%17))}
		b := make([]byte, headerSize+len(r.Payload))
		encodeInto(b, &r)
		data = append(data, b...)
		lsns = append(lsns, pos)
		pos += LSN(len(b))
	}
	seg := make([]byte, segHdrLen, segHdrLen+len(data))
	encodeSegHeader(seg, segCap, farHorizon)
	if err := os.WriteFile(filepath.Join(dir, segName(farHorizon)), append(seg, data...), 0o644); err != nil {
		t.Fatal(err)
	}
	fw := &FileWAL{dir: dir, policy: SyncNever, ckpt: lsns[0], horizon: farHorizon}
	if err := fw.writeMaster(); err != nil {
		t.Fatal(err)
	}
	return lsns, pos
}

// TestRestartAllocatesWindowNotAbsoluteLSN: replay, NewFromImage and
// FullImage over a log whose horizon sits at a huge LSN each allocate in
// proportion to the retained window, not to the LSN.
func TestRestartAllocatesWindowNotAbsoluteLSN(t *testing.T) {
	dir := t.TempDir()
	lsns, end := writeFarLog(t, dir, 200)

	var fw *FileWAL
	var rd *Reader
	var err error
	if n := allocated(func() { fw, rd, err = OpenFileWAL(dir, 0, SyncNever) }); n > windowBudget {
		t.Fatalf("replay allocated %d bytes for a %d-byte window", n, end-farHorizon)
	}
	if err != nil || rd == nil {
		t.Fatalf("replay: rd=%v err=%v", rd, err)
	}
	defer fw.Close()
	if got, want := fw.Stats().ReplayBytes, int64(end-farHorizon); got != want {
		t.Fatalf("ReplayBytes = %d, want the window %d", got, want)
	}
	if got := fw.Stats().ReplayRecords; got != int64(len(lsns)) {
		t.Fatalf("replayed %d records, want %d", got, len(lsns))
	}

	var l *Log
	if n := allocated(func() { l = NewFromImage(rd) }); n > windowBudget {
		t.Fatalf("NewFromImage allocated %d bytes", n)
	}
	var img *Reader
	if n := allocated(func() { img = l.FullImage() }); n > windowBudget {
		t.Fatalf("FullImage allocated %d bytes", n)
	}
	if img.StartLSN() != farHorizon || img.EndLSN() != end || img.Size() != int(end-farHorizon) {
		t.Fatalf("image window [%d,%d) size %d, want [%d,%d)", img.StartLSN(), img.EndLSN(), img.Size(), LSN(farHorizon), end)
	}
	if n := allocated(func() { img = l.CrashImage(nil) }); n > windowBudget {
		t.Fatalf("CrashImage allocated %d bytes", n)
	}
	if img.EndLSN() != end || img.CheckpointLSN() != lsns[0] {
		t.Fatalf("crash image end %d anchor %d, want %d %d", img.EndLSN(), img.CheckpointLSN(), end, lsns[0])
	}

	// The continued log appends at the absolute end and replays again.
	l.SetSink(fw)
	more := fileAppendN(t, l, 50, 'x')
	if more[0] != end {
		t.Fatalf("continued append at %d, want %d", more[0], end)
	}
	rec, err := l.Read(lsns[7])
	if err != nil || rec.TxnID != 8 {
		t.Fatalf("live read of a replayed record: %+v err=%v", rec, err)
	}
	if _, err := l.Read(farHorizon - 1); err == nil {
		t.Fatalf("live read below the window succeeded")
	}
	fw.Close()
	fw2, rd2, got := replayRecords(t, dir, 0)
	defer fw2.Close()
	if len(got) != len(lsns)+len(more) || got[0] != farHorizon || rd2.EndLSN() != l.StableLSN() {
		t.Fatalf("second replay: %d records from %v to %d, want %d from %d to %d",
			len(got), got[:min(len(got), 1)], rd2.EndLSN(), len(lsns)+len(more), LSN(farHorizon), l.StableLSN())
	}
}

// TestWindowedReader: a reader over a recycled window keeps the
// absolute-LSN surface — reads below its base are rejected, EndLSN is
// absolute, and Boundaries begins at the horizon.
func TestWindowedReader(t *testing.T) {
	dir := t.TempDir()
	lsns, end := writeFarLog(t, dir, 20)
	fw, rd, err := OpenFileWAL(dir, 0, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()

	if rd.StartLSN() != farHorizon || rd.EndLSN() != end {
		t.Fatalf("window [%d,%d), want [%d,%d)", rd.StartLSN(), rd.EndLSN(), LSN(farHorizon), end)
	}
	for _, lsn := range []LSN{1, farHorizon - 1} {
		if _, err := rd.Read(lsn); err == nil {
			t.Fatalf("Read(%d) below the base succeeded", lsn)
		}
		if _, err := rd.RecordAt(lsn); err == nil {
			t.Fatalf("RecordAt(%d) below the base succeeded", lsn)
		}
	}
	if _, err := rd.Read(end); err == nil {
		t.Fatalf("Read at the end succeeded")
	}
	rec, err := rd.RecordAt(lsns[3])
	if err != nil || rec.LSN != lsns[3] || rec.TxnID != 4 {
		t.Fatalf("RecordAt(%d) = %+v, %v", lsns[3], rec, err)
	}
	b := rd.Boundaries()
	if len(b) != len(lsns)+1 || b[0] != farHorizon || b[len(b)-1] != end {
		t.Fatalf("boundaries %d from %d to %d, want %d from %d to %d",
			len(b), b[0], b[len(b)-1], len(lsns)+1, LSN(farHorizon), end)
	}
	var scanned []LSN
	rd.ScanShared(NilLSN, func(r *Record) bool { scanned = append(scanned, r.LSN); return true })
	if len(scanned) != len(lsns) || scanned[0] != farHorizon {
		t.Fatalf("scan from nil visited %d records from %v", len(scanned), scanned[:min(len(scanned), 1)])
	}
	scanned = scanned[:0]
	rd.Scan(lsns[10], func(r Record) bool { scanned = append(scanned, r.LSN); return true })
	if len(scanned) != len(lsns)-10 || scanned[0] != lsns[10] {
		t.Fatalf("scan from %d visited %d records", lsns[10], len(scanned))
	}
}

// TestMemoryLogImagesStartAtOne: a memory-mode log is never recycled, so
// its images keep start 1 and cover the whole log.
func TestMemoryLogImagesStartAtOne(t *testing.T) {
	l := New()
	first := l.Append(&Record{Type: RecBegin, TxnID: 1})
	l.Append(&Record{Type: RecCommit, TxnID: 1})
	if err := l.ForceAll(); err != nil {
		t.Fatal(err)
	}
	img := l.CrashImage(nil)
	if first != 1 || img.StartLSN() != 1 || img.EndLSN() != l.StableLSN() || img.Size() != int(l.StableLSN()-1) {
		t.Fatalf("memory image [%d,%d) size %d, first record %d", img.StartLSN(), img.EndLSN(), img.Size(), first)
	}
	if b := img.Boundaries(); b[0] != 1 {
		t.Fatalf("boundaries start at %d", b[0])
	}
}

// TestFreePoolCapped: retired segments beyond maxFreeSegments are
// unlinked, and replay trims a surplus pool left by an earlier
// incarnation.
func TestFreePoolCapped(t *testing.T) {
	dir := t.TempDir()
	const segSz = 4096
	fw, _, err := OpenFileWAL(dir, segSz, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	l := New()
	l.SetSink(fw)
	lsns := fileAppendN(t, l, 1200, 'p') // ~40 segments
	if err := fw.NoteCheckpoint(lsns[1100]); err != nil {
		t.Fatal(err)
	}
	if err := fw.Recycle(lsns[1100]); err != nil {
		t.Fatal(err)
	}
	st := fw.Stats()
	if st.SegmentsRetired <= maxFreeSegments || st.SegmentsUnlinked != st.SegmentsRetired-maxFreeSegments {
		t.Fatalf("retired %d, unlinked %d: want all but %d unlinked", st.SegmentsRetired, st.SegmentsUnlinked, maxFreeSegments)
	}
	if n := countFree(t, dir); n != maxFreeSegments {
		t.Fatalf("%d free segment files, want %d", n, maxFreeSegments)
	}
	fw.Close()

	// An incarnation that pooled more leaves surplus files behind.
	for i := 0; i < 10; i++ {
		p := filepath.Join(dir, fmt.Sprintf("%s%d%s", freePrefix, 1000+i, segSuffix))
		if err := os.WriteFile(p, make([]byte, segHdrLen), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fw2, rd, got := replayRecords(t, dir, segSz)
	defer fw2.Close()
	if rd == nil || len(got) != 100 || got[0] != lsns[1100] {
		t.Fatalf("replay after trim: %d records", len(got))
	}
	if n := countFree(t, dir); n != maxFreeSegments {
		t.Fatalf("replay left %d free segment files, want %d", n, maxFreeSegments)
	}
	if fw2.Stats().SegmentsUnlinked != 10 {
		t.Fatalf("replay unlinked %d surplus files, want 10", fw2.Stats().SegmentsUnlinked)
	}
}

func countFree(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), freePrefix) {
			n++
		}
	}
	return n
}
