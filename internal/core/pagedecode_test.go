package core

import (
	"bytes"
	"path/filepath"
	"testing"
	"unsafe"

	"repro/internal/keys"
	"repro/internal/storage"
)

// missLeaf returns a 64-entry leaf of 100-byte values and its page image.
func missLeaf(t testing.TB) (*Node, []byte) {
	t.Helper()
	n := &Node{Low: keys.Uint64(0), High: keys.Inf}
	for i := 0; i < 64; i++ {
		n.Entries = append(n.Entries, Entry{
			Key:   keys.Uint64(uint64(i)),
			Value: bytes.Repeat([]byte{byte(i)}, 100),
		})
	}
	img, err := Codec{}.EncodePage(n)
	if err != nil {
		t.Fatal(err)
	}
	return n, img
}

// TestPageMissAllocs: reading a leaf back from the page file and decoding
// it — the work of one buffer-pool miss — allocates the returned image,
// the node and its entry slice, not a copy of every key and value.
func TestPageMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; alloc counts are meaningless")
	}
	_, img := missLeaf(t)
	d, err := storage.OpenFileDisk(filepath.Join(t.TempDir(), "pages.db"), 16384)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const pid = 2
	if err := d.Write(pid, img); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		b, ok, err := d.Read(pid)
		if err != nil || !ok {
			t.Fatalf("read: ok=%v err=%v", ok, err)
		}
		v, err := Codec{}.DecodePage(b)
		if err != nil || len(v.(*Node).Entries) != 64 {
			t.Fatalf("decode: %v", err)
		}
	})
	t.Logf("page miss: %.1f allocations", allocs)
	if allocs > 4 {
		t.Fatalf("page miss made %.1f allocations, want <= 4", allocs)
	}
}

// TestDecodePageAliasesImage: a decoded page's keys and values are
// capacity-capped views of its image, so appending to one reallocates and
// leaves the image and the next entry unchanged.
func TestDecodePageAliasesImage(t *testing.T) {
	want, img := missLeaf(t)
	orig := append([]byte(nil), img...)
	v, err := Codec{}.DecodePage(img)
	if err != nil {
		t.Fatal(err)
	}
	n := v.(*Node)
	lo := uintptr(unsafe.Pointer(&img[0]))
	within := func(b []byte) bool {
		p := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
		return len(b) > 0 && p >= lo && p < lo+uintptr(len(img))
	}
	if !within(n.Entries[0].Key) || !within(n.Entries[0].Value) {
		t.Fatal("decoded page copied its keys and values instead of aliasing the image")
	}
	for i := range n.Entries {
		e := &n.Entries[i]
		k := append(e.Key, 0xAA, 0xBB)
		val := append(e.Value, bytes.Repeat([]byte{0xCC}, 16)...)
		if within(k) || within(val) {
			t.Fatalf("entry %d: append grew into the image", i)
		}
	}
	if !bytes.Equal(img, orig) {
		t.Fatal("appending to decoded keys and values changed the page image")
	}
	for i, e := range n.Entries {
		if !bytes.Equal(e.Key, want.Entries[i].Key) || !bytes.Equal(e.Value, want.Entries[i].Value) {
			t.Fatalf("entry %d changed after appends to its neighbours", i)
		}
	}
	// Log payloads still decode with copies.
	c, err := decNodeImage(img)
	if err != nil {
		t.Fatal(err)
	}
	if within(c.Entries[0].Key) || within(c.Entries[0].Value) {
		t.Fatal("log-payload decode aliases its buffer")
	}
}
