package storage

import (
	"bytes"
	"errors"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/fault"
)

func mkImage(pid PageID, fill byte, n int) []byte {
	img := make([]byte, n)
	for i := range img {
		img[i] = fill ^ byte(pid)
	}
	return img
}

func TestFileDiskRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	d, err := OpenFileDisk(path, 512)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	want := map[PageID][]byte{}
	for pid := PageID(1); pid <= 20; pid++ {
		// Overwrite several times so both slots see traffic.
		for v := 0; v < 3; v++ {
			img := mkImage(pid, byte('A'+v), 64+int(pid))
			if err := d.Write(pid, img); err != nil {
				t.Fatalf("write %d: %v", pid, err)
			}
			want[pid] = img
		}
	}
	for pid, img := range want {
		got, ok, err := d.Read(pid)
		if err != nil || !ok || !bytes.Equal(got, img) {
			t.Fatalf("read %d: ok=%v err=%v", pid, ok, err)
		}
	}
	if _, ok, err := d.Read(99); ok || err != nil {
		t.Fatalf("read unwritten page: ok=%v err=%v", ok, err)
	}
	d.Close()

	// Reopen: the scan elects the newest slot of every page.
	d2, err := OpenFileDisk(path, 512)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer d2.Close()
	if d2.Len() != len(want) {
		t.Fatalf("reopen len %d, want %d", d2.Len(), len(want))
	}
	for pid, img := range want {
		got, ok, err := d2.Read(pid)
		if err != nil || !ok || !bytes.Equal(got, img) {
			t.Fatalf("reopen read %d: ok=%v err=%v", pid, ok, err)
		}
	}
	if d2.Stats().ChecksumChecks == 0 {
		t.Fatalf("reopen verified no checksums")
	}
}

func TestFileDiskChecksumMismatchRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	d, err := OpenFileDisk(path, 512)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	img1 := mkImage(3, 'x', 100)
	img2 := mkImage(3, 'y', 100)
	if err := d.Write(3, img1); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := d.Write(3, img2); err != nil {
		t.Fatalf("write: %v", err)
	}
	// Corrupt the ACTIVE slot under the cache: the live read fails its
	// checksum with the typed sentinel.
	st := d.pages[3]
	off := d.slotOff(3, st.active)
	if _, err := d.f.WriteAt([]byte{0xde, 0xad}, off+slotHdrLen+10); err != nil {
		t.Fatalf("corrupt: %v", err)
	}
	_, _, err = d.Read(3)
	if !errors.Is(err, ErrTornPage) {
		t.Fatalf("read of corrupt slot: %v, want ErrTornPage", err)
	}
	if d.Stats().ChecksumFails == 0 {
		t.Fatalf("no checksum failure counted")
	}
	d.Close()

	// Reopen: careful replacement falls back to the intact older slot.
	d2, err := OpenFileDisk(path, 512)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got, ok, err := d2.Read(3)
	if err != nil || !ok || !bytes.Equal(got, img1) {
		t.Fatalf("fallback read: ok=%v err=%v (want prior image)", ok, err)
	}
	// Corrupt the fallback too: now the image is genuinely lost and the
	// page reads as torn — the fatal case.
	st2 := d2.pages[3]
	if _, err := d2.f.WriteAt([]byte{0xbe, 0xef}, d2.slotOff(3, st2.active)+slotHdrLen+5); err != nil {
		t.Fatalf("corrupt 2: %v", err)
	}
	d2.Close()
	d3, err := OpenFileDisk(path, 512)
	if err != nil {
		t.Fatalf("reopen 2: %v", err)
	}
	defer d3.Close()
	_, _, err = d3.Read(3)
	if !errors.Is(err, ErrTornPage) {
		t.Fatalf("both-slots-corrupt read: %v, want ErrTornPage", err)
	}
}

func TestFileDiskPartialWriteKeepsPriorImage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	d, err := OpenFileDisk(path, 512)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	prior := mkImage(5, 'p', 120)
	if err := d.Write(5, prior); err != nil {
		t.Fatalf("write: %v", err)
	}
	torn := mkImage(5, 'q', 120)
	for _, frac := range []float64{0.1, 0.5, 0.97, 1.0} {
		if err := d.WritePartial(5, torn, frac); err != nil {
			t.Fatalf("partial %v: %v", frac, err)
		}
		got, ok, err := d.Read(5)
		if err != nil || !ok || !bytes.Equal(got, prior) {
			t.Fatalf("after tear %v: ok=%v err=%v (want prior image)", frac, ok, err)
		}
	}
	if d.Stats().PartialWrites == 0 {
		t.Fatalf("no partial writes counted")
	}
	d.Close()

	// A crash after the torn write rescans and still elects the prior
	// image: the partial frame fails its checksum.
	d2, err := OpenFileDisk(path, 512)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got, ok, err := d2.Read(5)
	if err != nil || !ok || !bytes.Equal(got, prior) {
		t.Fatalf("post-crash read: ok=%v err=%v (want prior image)", ok, err)
	}
	d2.Close()

	// A torn FIRST write (no prior version) reads as never-written.
	path2 := filepath.Join(t.TempDir(), "pages2.db")
	d3, err := OpenFileDisk(path2, 512)
	if err != nil {
		t.Fatalf("open 2: %v", err)
	}
	if err := d3.WritePartial(7, mkImage(7, 'z', 80), 0.6); err != nil {
		t.Fatalf("partial first write: %v", err)
	}
	if _, ok, err := d3.Read(7); ok || err != nil {
		t.Fatalf("torn first write visible: ok=%v err=%v", ok, err)
	}
	d3.Close()
	d4, err := OpenFileDisk(path2, 512)
	if err != nil {
		t.Fatalf("reopen 2: %v", err)
	}
	defer d4.Close()
	if _, ok, err := d4.Read(7); ok || err != nil {
		t.Fatalf("torn first write visible after rescan: ok=%v err=%v", ok, err)
	}
}

// TestFileDiskFaultyTornMapsToPartialWrite checks the injector plumbing:
// a fault.Torn on disk.write over a FileDisk produces a genuine partial
// pwrite (not just a dropped write), while the page stays readable at
// its prior version — the same observable semantics MemDisk simulates.
func TestFileDiskFaultyTornMapsToPartialWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	fd, err := OpenFileDisk(path, 512)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer fd.Close()
	inj := fault.New(42)
	d := NewFaultyDisk(fd, inj)
	prior := mkImage(2, 'm', 90)
	if err := d.Write(2, prior); err != nil {
		t.Fatalf("write: %v", err)
	}
	inj.Arm(FPDiskWrite, fault.Spec{Kind: fault.Torn})
	err = d.Write(2, mkImage(2, 'n', 90))
	if err == nil || !fault.IsTorn(err) {
		t.Fatalf("torn write error = %v", err)
	}
	if fd.Stats().PartialWrites != 1 {
		t.Fatalf("partial writes = %d, want 1 (real bytes must land)", fd.Stats().PartialWrites)
	}
	got, ok, rerr := d.Read(2)
	if rerr != nil || !ok || !bytes.Equal(got, prior) {
		t.Fatalf("read after torn write: ok=%v err=%v (want prior image)", ok, rerr)
	}
}

func TestFileDiskSnapshotEquivalence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	fd, err := OpenFileDisk(path, 1024)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer fd.Close()
	md := NewDisk()
	for pid := PageID(1); pid <= 30; pid++ {
		img := mkImage(pid, byte(pid*3), 50+int(pid)*7)
		if err := fd.Write(pid, img); err != nil {
			t.Fatalf("fd write: %v", err)
		}
		if err := md.Write(pid, img); err != nil {
			t.Fatalf("md write: %v", err)
		}
	}
	sf, sm := fd.Snapshot(), md.Snapshot()
	if sf.Len() != sm.Len() {
		t.Fatalf("snapshot len %d vs %d", sf.Len(), sm.Len())
	}
	for _, pid := range sm.PageIDs() {
		a, _, _ := sf.Read(pid)
		b, _, _ := sm.Read(pid)
		if !bytes.Equal(a, b) {
			t.Fatalf("snapshot image %d differs", pid)
		}
	}
}

func TestFileDiskImageTooLarge(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	d, err := OpenFileDisk(path, 256)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer d.Close()
	if err := d.Write(1, make([]byte, 256)); err == nil {
		t.Fatalf("oversized image accepted")
	}
	if err := d.Write(1, make([]byte, 256-slotHdrLen)); err != nil {
		t.Fatalf("max-size image rejected: %v", err)
	}
}

func TestFileDiskHeaderCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	d, err := OpenFileDisk(path, 512)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := d.Write(1, mkImage(1, 'h', 40)); err != nil {
		t.Fatalf("write: %v", err)
	}
	d.Close()
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatalf("raw open: %v", err)
	}
	if _, err := f.WriteAt([]byte{0xff}, 3); err != nil {
		t.Fatalf("corrupt header: %v", err)
	}
	f.Close()
	if _, err := OpenFileDisk(path, 512); !errors.Is(err, ErrTornPage) {
		t.Fatalf("corrupt header open: %v, want ErrTornPage", err)
	}
}

// TestFileDiskReadIOErrorNotTorn: an I/O error from the device (here, the
// file is closed) is reported as itself, not mistaken for a torn page and
// not as a never-written one.
func TestFileDiskReadIOErrorNotTorn(t *testing.T) {
	d, err := OpenFileDisk(filepath.Join(t.TempDir(), "pages.db"), 512)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Write(2, mkImage(2, 'A', 100)); err != nil {
		t.Fatal(err)
	}
	d.Close()
	img, ok, err := d.Read(2)
	if err == nil {
		t.Fatalf("read from a closed disk succeeded: ok=%v len=%d", ok, len(img))
	}
	if errors.Is(err, ErrTornPage) {
		t.Fatalf("I/O error reported as a torn page: %v", err)
	}
	if !errors.Is(err, os.ErrClosed) {
		t.Fatalf("read error %v does not wrap the device error", err)
	}
}

// TestFileDiskReadsDoNotShareBuffers: every returned image must be its
// own copy, never a view of the mapping or of a recycled buffer — a
// later read must not change an image an earlier read handed out.
func TestFileDiskReadsDoNotShareBuffers(t *testing.T) {
	d, err := OpenFileDisk(filepath.Join(t.TempDir(), "pages.db"), 512)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	want := map[PageID][]byte{}
	for pid := PageID(1); pid <= 8; pid++ {
		want[pid] = mkImage(pid, 'Q', 50+10*int(pid))
		if err := d.Write(pid, want[pid]); err != nil {
			t.Fatal(err)
		}
	}
	got := map[PageID][]byte{}
	for round := 0; round < 3; round++ {
		for pid := range want {
			img, ok, err := d.Read(pid)
			if err != nil || !ok {
				t.Fatalf("read %d: ok=%v err=%v", pid, ok, err)
			}
			if round == 0 {
				got[pid] = img
			}
		}
	}
	for pid, img := range got {
		if !bytes.Equal(img, want[pid]) {
			t.Fatalf("page %d image changed by later reads", pid)
		}
	}
}

// TestFileDiskTruncatedFileIsAnError: a page file cut short behind an
// open disk's back leaves mapped pages the kernel cannot supply (SIGBUS).
// A page read and the open scan must each report that as an error —
// not as a torn page, not as a never-written page, and not as a crash.
func TestFileDiskTruncatedFileIsAnError(t *testing.T) {
	const slot = 512
	path := filepath.Join(t.TempDir(), "pages.db")
	d, err := OpenFileDisk(path, slot)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// The kernel zero-fills the rest of a file's last OS page, so a slot
	// inside the first one would read as zeros (a torn page) after the
	// cut. Read a page whose slots lie wholly past it.
	pid := PageID(os.Getpagesize()/(2*slot) + 2)
	for p := PageID(1); p <= pid; p++ {
		if err := d.Write(p, mkImage(p, 'T', 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Truncate(path, fdHdrLen); err != nil {
		t.Fatal(err)
	}
	img, ok, err := d.Read(pid)
	if err == nil || ok {
		t.Fatalf("read of a truncated page: ok=%v len=%d err=%v, want an error", ok, len(img), err)
	}
	if errors.Is(err, ErrTornPage) {
		t.Fatalf("truncated file reported as a torn page: %v", err)
	}
	// The open scan, over the size the disk knew before the cut (the
	// file shrinking between the size check and the scan).
	err = d.scan()
	if err == nil || errors.Is(err, ErrTornPage) {
		t.Fatalf("scan of a truncated file: %v, want an error that is not ErrTornPage", err)
	}
}

// TestFileDiskRemapUnderReaders: readers check random pages against
// their images while one writer grows the file across several mapping
// growths and flips existing pages between their slots. Under -race this
// also checks that every remap is ordered against every mapped copy.
func TestFileDiskRemapUnderReaders(t *testing.T) {
	const slot = 512
	path := filepath.Join(t.TempDir(), "pages.db")
	d, err := OpenFileDisk(path, slot)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	image := func(pid PageID) []byte { return mkImage(pid, 'R', 40+int(pid)%200) }
	// Past 4x the first mapping: at least three growths (1x->2x->4x->8x).
	npages := PageID(4*minMapLen/(2*slot) + 64)
	var written atomic.Int64 // pages [1, written] are readable
	var stop atomic.Bool
	var wg sync.WaitGroup
	stopReaders := func() { stop.Store(true); wg.Wait() }
	defer stopReaders()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				n := written.Load()
				if n == 0 {
					continue
				}
				pid := PageID(rng.Int63n(n) + 1)
				img, ok, err := d.Read(pid)
				if err != nil || !ok || !bytes.Equal(img, image(pid)) {
					t.Errorf("read %d: ok=%v err=%v", pid, ok, err)
					return
				}
			}
		}(int64(r))
	}
	rng := rand.New(rand.NewSource(99))
	for pid := PageID(1); pid <= npages; pid++ {
		if err := d.Write(pid, image(pid)); err != nil {
			t.Fatal(err)
		}
		// Rewrite an older page: its current slot flips under the readers.
		old := PageID(rng.Int63n(int64(pid)) + 1)
		if err := d.Write(old, image(old)); err != nil {
			t.Fatal(err)
		}
		written.Store(int64(pid))
	}
	stopReaders()
	grows := d.Stats().MapGrows
	if limit := int64(bits.Len64(uint64(d.size / minMapLen))); grows < 3 || grows > limit {
		t.Fatalf("mapping grew %d times for a %d-byte file, want 3..%d", grows, d.size, limit)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenFileDisk(path, slot)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	for pid := PageID(1); pid <= npages; pid++ {
		img, ok, err := d2.Read(pid)
		if err != nil || !ok || !bytes.Equal(img, image(pid)) {
			t.Fatalf("reopen read %d: ok=%v err=%v", pid, ok, err)
		}
	}
}

// TestFileDiskOverwriteAllocs: writes frame their slot in a pooled
// buffer, so overwriting an existing page allocates nothing.
func TestFileDiskOverwriteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; alloc counts are meaningless")
	}
	d, err := OpenFileDisk(filepath.Join(t.TempDir(), "pages.db"), 512)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	img := mkImage(3, 'W', 300)
	if err := d.Write(3, img); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := d.Write(3, img); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("overwrite made %.1f allocations, want 0", allocs)
	}
}
