// FileDisk: a page-addressed data file with per-page checksums, torn-page
// detection, and careful replacement.
//
// Each page owns two fixed-size slots (ping-pong). A write always targets
// the slot NOT holding the current image and carries a monotonically
// increasing sequence number, so the prior image stays intact until the
// new one is completely on disk — the paper's careful replacement
// discipline (§2.2) realized at the file layer. A torn write therefore
// leaves the page readable at its previous version, which is exactly the
// semantics the in-memory fault simulation (FaultyDisk over MemDisk)
// models, and what keeps the MemDisk-vs-FileDisk recovery equivalence
// oracle exact.
//
// On-disk format (little-endian):
//
//	file header (32 bytes):
//	  [0:8)   magic "PITRPAGE"
//	  [8:12)  format version (1)
//	  [12:16) slot size in bytes
//	  [16:20) CRC32C over bytes [0:16)
//	  [20:32) zero pad
//
//	page pid (pid >= 1) occupies two slots at
//	  off(pid, s) = 32 + (pid-1)*2*slotSize + s*slotSize, s in {0,1}
//
//	slot frame (28-byte header + content):
//	  [0:4)   magic "PGSL"
//	  [4:12)  sequence number (monotone per page; higher wins)
//	  [12:20) page ID (self-check against cross-linked offsets)
//	  [20:24) content length
//	  [24:28) CRC32C over bytes [4:24) + content
//	  [28:..) page image (pageLSN header + tag + codec content)
//
// Reads copy out of a read-only shared mapping of the file (PROT_READ,
// MAP_SHARED), not through pread: a page miss is a memcpy from the page
// cache with no system call. The mapping only moves bytes; the buffer
// pool still decides what is cached and writes still go through pwrite
// in write-ahead order. Its invariants:
//
//   - every access is below the written size the disk tracks, so a
//     corrupt length reads as a short slot (ErrTornPage), never as an
//     access past end of file;
//   - a read copies the slot frame out first and verifies the private
//     copy (magic, page ID, length, CRC), never the shared mapping;
//   - the mapping grows geometrically and is replaced only under the
//     exclusive d.mu that writes take, while readers hold d.mu shared
//     across their copy, so no write or remap lands in the middle of one;
//   - every mapped copy runs under debug.SetPanicOnFault, so a page the
//     kernel cannot supply (an I/O error, a file cut short behind the
//     disk's back) comes back as an error, not a SIGBUS.
//
// On open the slots are verified in place through the mapping and the
// newest intact one of each page wins. Both slots present but corrupt
// means the stable image is genuinely lost — ErrTornPage, fatal, because
// redo needs an intact base image. One corrupt slot and one zero slot is
// a torn FIRST write: the page was never completely flushed, so it reads
// as never-written (ok=false) and redo recreates it from the log.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
)

const (
	fdHdrLen   = 32
	fdMagic    = "PITRPAGE"
	fdVersion  = 1
	slotHdrLen = 28
	slotMagic  = 0x4c534750 // "PGSL"
	// DefaultSlotSize is the default per-slot size; an image must fit in
	// slotSize-slotHdrLen bytes.
	DefaultSlotSize = 8192
	// minMapLen is the smallest read mapping; it doubles from there as
	// the file grows, so a file of size S is remapped O(log S) times.
	minMapLen = 1 << 20
)

var fdCRCTable = crc32.MakeTable(crc32.Castagnoli)

// FileDiskStats counts the data file's physical work.
type FileDiskStats struct {
	PagesWritten   int64
	BytesWritten   int64
	PartialWrites  int64
	ChecksumChecks int64 // slot checksum verifications (reads + open scan)
	ChecksumFails  int64
	Fsyncs         int64
	MapGrows       int64 // read mapping replaced by a larger one
}

type fdSlotState struct {
	active int    // slot holding the current image (0 or 1)
	seq    uint64 // its sequence number
	torn   bool   // both slots corrupt: image lost
}

// FileDisk implements Disk over a real file. Write is a single pwrite
// with no fsync — data-page durability rides on Sync(), which the engine
// calls at checkpoints before recycling log segments (write-ahead
// ordering: a page's log records are always forced before the page is
// flushed, and its segments are only recycled after the page is synced).
// Read copies the page out of a read-only mapping of the file, with no
// system call (see the package comment above for its invariants).
type FileDisk struct {
	path     string
	slotSize int

	mu sync.RWMutex
	f  *os.File
	// m maps the file read-only from offset 0; len(m) >= size, but only
	// bytes below size exist in the file. nil once closed.
	m     []byte
	size  int64 // bytes written to the file so far
	pages map[PageID]*fdSlotState
	// slotBufs recycles slot-size buffers (*[]byte) that writes frame
	// their slot in, so a page write allocates nothing.
	slotBufs sync.Pool

	checks atomic.Int64
	fails  atomic.Int64
	writes atomic.Int64
	bytes  atomic.Int64
	parts  atomic.Int64
	syncs  atomic.Int64
	grows  atomic.Int64
}

// OpenFileDisk opens or creates the page file at path. slotSize <= 0
// means DefaultSlotSize. An existing file is scanned: every page's
// newest intact slot becomes its stable image.
func OpenFileDisk(path string, slotSize int) (*FileDisk, error) {
	if slotSize <= 0 {
		slotSize = DefaultSlotSize
	}
	if slotSize < slotHdrLen+16 {
		return nil, fmt.Errorf("storage: slot size %d too small", slotSize)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	d := &FileDisk{path: path, slotSize: slotSize, f: f, pages: make(map[PageID]*fdSlotState)}
	// Writes start only once d.slotSize is final (below, from the header).
	d.slotBufs.New = func() any { b := make([]byte, d.slotSize); return &b }
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	d.size = st.Size()
	if d.size == 0 {
		var hdr [fdHdrLen]byte
		copy(hdr[0:8], fdMagic)
		binary.LittleEndian.PutUint32(hdr[8:], fdVersion)
		binary.LittleEndian.PutUint32(hdr[12:], uint32(slotSize))
		binary.LittleEndian.PutUint32(hdr[16:], crc32.Checksum(hdr[0:16], fdCRCTable))
		if _, err := f.WriteAt(hdr[:], 0); err != nil {
			f.Close()
			return nil, err
		}
		d.size = fdHdrLen
		if err := d.mapTo(d.size); err != nil {
			f.Close()
			return nil, err
		}
		return d, nil
	}
	var hdr [fdHdrLen]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: page file %s: %w", path, ErrTornPage)
	}
	if string(hdr[0:8]) != fdMagic ||
		binary.LittleEndian.Uint32(hdr[8:]) != fdVersion ||
		binary.LittleEndian.Uint32(hdr[16:]) != crc32.Checksum(hdr[0:16], fdCRCTable) {
		f.Close()
		return nil, fmt.Errorf("storage: page file %s header corrupt: %w", path, ErrTornPage)
	}
	d.slotSize = int(binary.LittleEndian.Uint32(hdr[12:]))
	if err := d.mapTo(d.size); err != nil {
		f.Close()
		return nil, err
	}
	if err := d.scan(); err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}

// mapTo makes the read mapping cover the file's first end bytes,
// doubling its length until it does. The caller holds d.mu exclusively
// (or owns d outright, at open), so no reader is copying out of the old
// mapping when it is unmapped.
func (d *FileDisk) mapTo(end int64) error {
	n := int64(len(d.m))
	if end <= n {
		return nil
	}
	for n = max(n, minMapLen); n < end; n *= 2 {
	}
	m, err := syscall.Mmap(int(d.f.Fd()), 0, int(n), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return fmt.Errorf("storage: page file %s: map %d bytes: %w", d.path, n, err)
	}
	if d.m != nil {
		if err := syscall.Munmap(d.m); err != nil {
			_ = syscall.Munmap(m) // the unmap error above is the one to report
			return fmt.Errorf("storage: page file %s: unmap: %w", d.path, err)
		}
		d.grows.Add(1)
	}
	d.m = m
	return nil
}

// recoverFault, deferred by every function that reads d.m under
// debug.SetPanicOnFault, turns the panic a mapped page the kernel cannot
// supply raises (an I/O error, or a file cut short behind the disk's
// back) into an error in *err. Any other panic is re-raised.
func (d *FileDisk) recoverFault(err *error) {
	r := recover()
	if r == nil {
		return
	}
	if f, ok := r.(interface {
		error
		Addr() uintptr
	}); ok {
		*err = fmt.Errorf("storage: page file %s: mapped page unreadable (I/O error or file cut short): %w", d.path, f)
		return
	}
	panic(r)
}

// scan walks every slot pair in place through the mapping, electing each
// page's newest intact image.
func (d *FileDisk) scan() (err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer d.recoverFault(&err)
	pairBytes := int64(2 * d.slotSize)
	npages := (d.size - fdHdrLen + pairBytes - 1) / pairBytes
	for i := int64(0); i < npages; i++ {
		off := fdHdrLen + i*pairBytes
		// Only a pair cut short at the end of the file is legal.
		pair := d.m[off:min(off+pairBytes, d.size)]
		pid := PageID(i + 1)
		var st fdSlotState
		haveValid := false
		nonzeroCorrupt := 0
		for s := 0; s < 2; s++ {
			lo := s * d.slotSize
			if lo >= len(pair) {
				break
			}
			slot := pair[lo:min(lo+d.slotSize, len(pair))]
			_, seq, ok := d.verifySlot(slot, pid)
			if ok {
				if !haveValid || seq > st.seq {
					st.active, st.seq = s, seq
				}
				haveValid = true
			} else if !allZero(slot) {
				nonzeroCorrupt++
			}
		}
		switch {
		case haveValid:
			cp := st
			d.pages[pid] = &cp
		case nonzeroCorrupt >= 2:
			// Both versions corrupt: the stable image is lost for good.
			d.pages[pid] = &fdSlotState{torn: true}
		default:
			// All-zero (never written) or a single torn first write:
			// the page reads as never flushed.
		}
	}
	return nil
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// verifySlot checks one slot frame; returns the content and sequence.
func (d *FileDisk) verifySlot(slot []byte, pid PageID) ([]byte, uint64, bool) {
	d.checks.Add(1)
	if len(slot) < slotHdrLen || binary.LittleEndian.Uint32(slot[0:]) != slotMagic {
		return nil, 0, false
	}
	seq := binary.LittleEndian.Uint64(slot[4:])
	if PageID(binary.LittleEndian.Uint64(slot[12:])) != pid {
		d.fails.Add(1)
		return nil, 0, false
	}
	ln := int(binary.LittleEndian.Uint32(slot[20:]))
	if ln < 0 || slotHdrLen+ln > len(slot) {
		d.fails.Add(1)
		return nil, 0, false
	}
	crc := binary.LittleEndian.Uint32(slot[24:])
	h := crc32.Checksum(slot[4:24], fdCRCTable)
	h = crc32.Update(h, fdCRCTable, slot[slotHdrLen:slotHdrLen+ln])
	if h != crc {
		d.fails.Add(1)
		return nil, 0, false
	}
	return slot[slotHdrLen : slotHdrLen+ln], seq, true
}

func (d *FileDisk) slotOff(pid PageID, slot int) int64 {
	return fdHdrLen + (int64(pid)-1)*2*int64(d.slotSize) + int64(slot)*int64(d.slotSize)
}

// frameSlot builds the on-disk slot frame for img in a pooled slot
// buffer; the caller returns bp to d.slotBufs once the frame is written.
func (d *FileDisk) frameSlot(pid PageID, seq uint64, img []byte) (b []byte, bp *[]byte, err error) {
	if len(img) > d.slotSize-slotHdrLen {
		return nil, nil, fmt.Errorf("storage: page %d image %dB exceeds slot capacity %dB", pid, len(img), d.slotSize-slotHdrLen)
	}
	bp = d.slotBufs.Get().(*[]byte)
	b = (*bp)[:slotHdrLen+len(img)]
	binary.LittleEndian.PutUint32(b[0:], slotMagic)
	binary.LittleEndian.PutUint64(b[4:], seq)
	binary.LittleEndian.PutUint64(b[12:], uint64(pid))
	binary.LittleEndian.PutUint32(b[20:], uint32(len(img)))
	copy(b[slotHdrLen:], img)
	h := crc32.Checksum(b[4:24], fdCRCTable)
	h = crc32.Update(h, fdCRCTable, b[slotHdrLen:])
	binary.LittleEndian.PutUint32(b[24:], h)
	return b, bp, nil
}

// writeAt pwrites b at off, first growing the read mapping to cover the
// file's new end. The caller holds d.mu exclusively.
func (d *FileDisk) writeAt(b []byte, off int64) error {
	if d.m == nil {
		return fmt.Errorf("storage: page file %s: write: %w", d.path, os.ErrClosed)
	}
	end := off + int64(len(b))
	if err := d.mapTo(end); err != nil {
		return err
	}
	if _, err := d.f.WriteAt(b, off); err != nil {
		return err
	}
	d.size = max(d.size, end)
	return nil
}

// Write replaces the stable image of pid via careful replacement: the
// frame lands in the inactive slot and only then does the in-memory
// election flip to it.
func (d *FileDisk) Write(pid PageID, img []byte) error {
	if pid == NilPage {
		return errors.New("storage: write to nil page")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.pages[pid]
	target, seq := 0, uint64(1)
	if st != nil && !st.torn {
		target, seq = 1-st.active, st.seq+1
	}
	b, bp, err := d.frameSlot(pid, seq, img)
	if err != nil {
		return err
	}
	defer d.slotBufs.Put(bp)
	if err := d.writeAt(b, d.slotOff(pid, target)); err != nil {
		return err
	}
	d.writes.Add(1)
	d.bytes.Add(int64(len(b)))
	if st == nil || st.torn {
		d.pages[pid] = &fdSlotState{active: target, seq: seq}
	} else {
		st.active, st.seq = target, seq
	}
	return nil
}

// WritePartial writes only a seeded prefix of the framed image into the
// target slot — a genuine torn pwrite. The in-memory election is NOT
// updated: the prior image (or never-written state) remains the page's
// stable version, and a post-crash rescan elects the same way because
// the partial frame fails its checksum.
func (d *FileDisk) WritePartial(pid PageID, img []byte, frac float64) error {
	if pid == NilPage {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.pages[pid]
	target, seq := 0, uint64(1)
	if st != nil && !st.torn {
		target, seq = 1-st.active, st.seq+1
	}
	b, bp, err := d.frameSlot(pid, seq, img)
	if err != nil {
		return err
	}
	defer d.slotBufs.Put(bp)
	n := int(frac * float64(len(b)))
	if n >= len(b) {
		n = len(b) - 1 // a complete frame would not be torn
	}
	if n <= 0 {
		return nil
	}
	if err := d.writeAt(b[:n], d.slotOff(pid, target)); err != nil {
		return err
	}
	d.parts.Add(1)
	return nil
}

// Read returns the stable image of pid, copied out of the read mapping
// and then verified (magic, page ID, length, checksum).
func (d *FileDisk) Read(pid PageID) ([]byte, bool, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.readLocked(pid)
}

func (d *FileDisk) readLocked(pid PageID) ([]byte, bool, error) {
	st := d.pages[pid]
	if st == nil {
		return nil, false, nil
	}
	if st.torn {
		return nil, false, fmt.Errorf("storage: page %d: both slots corrupt: %w", pid, ErrTornPage)
	}
	if d.m == nil {
		return nil, false, fmt.Errorf("storage: read page %d: %w", pid, os.ErrClosed)
	}
	img, err := d.copySlot(pid, st.active)
	if err != nil {
		return nil, false, err
	}
	return img, true, nil
}

// copySlot copies slot s of pid out of the mapping into a fresh buffer
// and verifies that private copy. The copy takes the header and only as
// many content bytes as the header's length claims, bounded by the slot
// and by the written size: a slot the file cuts short, or a corrupt
// length, fails verification as a short frame. The length is read from
// the mapping only to size the copy; every check reads the copy. The
// image returned is a subslice of the frame, so one allocation holds
// both (a separate stack copy of the header would escape into the CRC
// call and cost a second), and append does not zero it before the copy.
func (d *FileDisk) copySlot(pid PageID, s int) (img []byte, err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer d.recoverFault(&err)
	off := d.slotOff(pid, s)
	n := min(d.size-off, int64(d.slotSize))
	if n >= slotHdrLen {
		n = min(n, slotHdrLen+int64(binary.LittleEndian.Uint32(d.m[off+20:])))
	}
	var frame []byte
	if n > 0 {
		frame = append([]byte(nil), d.m[off:off+n]...)
	}
	img, _, ok := d.verifySlot(frame, pid)
	if !ok {
		return nil, fmt.Errorf("storage: page %d slot %d checksum mismatch: %w", pid, s, ErrTornPage)
	}
	return img, nil
}

// Snapshot copies every intact stable image into a MemDisk.
func (d *FileDisk) Snapshot() *MemDisk {
	d.mu.RLock()
	defer d.mu.RUnlock()
	cp := make(map[PageID][]byte, len(d.pages))
	for pid, st := range d.pages {
		if st.torn {
			continue
		}
		if img, ok, err := d.readLocked(pid); err == nil && ok {
			cp[pid] = img
		}
	}
	return &MemDisk{pages: cp}
}

// Len returns the number of stable pages.
func (d *FileDisk) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.pages)
}

// PageIDs returns the IDs of all stable pages.
func (d *FileDisk) PageIDs() []PageID {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]PageID, 0, len(d.pages))
	for pid := range d.pages {
		out = append(out, pid)
	}
	return out
}

// Sync fsyncs the page file. The engine calls this at checkpoints,
// before log segments below the new horizon are recycled.
func (d *FileDisk) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.f.Sync(); err != nil {
		return err
	}
	d.syncs.Add(1)
	return nil
}

// Close unmaps and closes the page file without syncing.
func (d *FileDisk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var uerr error
	if d.m != nil {
		uerr = syscall.Munmap(d.m)
		d.m = nil
	}
	if err := d.f.Close(); err != nil {
		return err
	}
	return uerr
}

// Stats returns a snapshot of the physical-work counters.
func (d *FileDisk) Stats() FileDiskStats {
	return FileDiskStats{
		PagesWritten:   d.writes.Load(),
		BytesWritten:   d.bytes.Load(),
		PartialWrites:  d.parts.Load(),
		ChecksumChecks: d.checks.Load(),
		ChecksumFails:  d.fails.Load(),
		Fsyncs:         d.syncs.Load(),
		MapGrows:       d.grows.Load(),
	}
}
