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
// Reads verify the active slot's checksum; on open both slots are
// scanned and the newest intact one wins. Both slots present but corrupt
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
	"io"
	"os"
	"sync"
	"sync/atomic"
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
type FileDisk struct {
	path     string
	slotSize int

	mu    sync.RWMutex
	f     *os.File
	pages map[PageID]*fdSlotState
	// slotBufs recycles slot-size read buffers (*[]byte), so a page read
	// allocates only the image it returns.
	slotBufs sync.Pool

	checks atomic.Int64
	fails  atomic.Int64
	writes atomic.Int64
	bytes  atomic.Int64
	parts  atomic.Int64
	syncs  atomic.Int64
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
	// Reads start only once d.slotSize is final (below, from the header).
	d.slotBufs.New = func() any { b := make([]byte, d.slotSize); return &b }
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() == 0 {
		var hdr [fdHdrLen]byte
		copy(hdr[0:8], fdMagic)
		binary.LittleEndian.PutUint32(hdr[8:], fdVersion)
		binary.LittleEndian.PutUint32(hdr[12:], uint32(slotSize))
		binary.LittleEndian.PutUint32(hdr[16:], crc32.Checksum(hdr[0:16], fdCRCTable))
		if _, err := f.WriteAt(hdr[:], 0); err != nil {
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
	if err := d.scan(st.Size()); err != nil {
		f.Close()
		return nil, err
	}
	return d, nil
}

// scan walks every slot pair, electing each page's newest intact image.
func (d *FileDisk) scan(size int64) error {
	pairBytes := int64(2 * d.slotSize)
	npages := (size - fdHdrLen + pairBytes - 1) / pairBytes
	buf := make([]byte, pairBytes)
	for i := int64(0); i < npages; i++ {
		off := fdHdrLen + i*pairBytes
		n, err := d.f.ReadAt(buf, off)
		if err != nil && !errors.Is(err, io.EOF) {
			// Only a short read at the end of the file is legal; an I/O
			// error must not pass for a torn or never-written page.
			return fmt.Errorf("storage: page file %s: read slots at %d: %w", d.path, off, err)
		}
		pid := PageID(i + 1)
		pair := buf[:n]
		var st fdSlotState
		haveValid := false
		nonzeroCorrupt := 0
		for s := 0; s < 2; s++ {
			lo := s * d.slotSize
			if lo >= len(pair) {
				break
			}
			hi := lo + d.slotSize
			if hi > len(pair) {
				hi = len(pair)
			}
			slot := pair[lo:hi]
			img, seq, ok := d.verifySlot(slot, pid)
			if ok {
				if !haveValid || seq > st.seq {
					st.active, st.seq = s, seq
				}
				haveValid = true
				_ = img
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

// frameSlot builds the on-disk slot frame for img.
func (d *FileDisk) frameSlot(pid PageID, seq uint64, img []byte) ([]byte, error) {
	if len(img) > d.slotSize-slotHdrLen {
		return nil, fmt.Errorf("storage: page %d image %dB exceeds slot capacity %dB", pid, len(img), d.slotSize-slotHdrLen)
	}
	b := make([]byte, slotHdrLen+len(img))
	binary.LittleEndian.PutUint32(b[0:], slotMagic)
	binary.LittleEndian.PutUint64(b[4:], seq)
	binary.LittleEndian.PutUint64(b[12:], uint64(pid))
	binary.LittleEndian.PutUint32(b[20:], uint32(len(img)))
	copy(b[slotHdrLen:], img)
	h := crc32.Checksum(b[4:24], fdCRCTable)
	h = crc32.Update(h, fdCRCTable, b[slotHdrLen:])
	binary.LittleEndian.PutUint32(b[24:], h)
	return b, nil
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
	b, err := d.frameSlot(pid, seq, img)
	if err != nil {
		return err
	}
	if _, err := d.f.WriteAt(b, d.slotOff(pid, target)); err != nil {
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
	b, err := d.frameSlot(pid, seq, img)
	if err != nil {
		return err
	}
	n := int(frac * float64(len(b)))
	if n >= len(b) {
		n = len(b) - 1 // a complete frame would not be torn
	}
	if n <= 0 {
		return nil
	}
	if _, err := d.f.WriteAt(b[:n], d.slotOff(pid, target)); err != nil {
		return err
	}
	d.parts.Add(1)
	return nil
}

// Read returns the stable image of pid, verifying its checksum.
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
	bp := d.slotBufs.Get().(*[]byte)
	defer d.slotBufs.Put(bp)
	n, err := d.f.ReadAt(*bp, d.slotOff(pid, st.active))
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, false, fmt.Errorf("storage: read page %d: %w", pid, err)
	}
	img, _, ok := d.verifySlot((*bp)[:n], pid)
	if !ok {
		return nil, false, fmt.Errorf("storage: page %d slot %d checksum mismatch: %w", pid, st.active, ErrTornPage)
	}
	cp := make([]byte, len(img))
	copy(cp, img)
	return cp, true, nil
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

// Close closes the page file without syncing.
func (d *FileDisk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.f.Close()
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
	}
}
