package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Codec translates a store's decoded page contents to and from bytes. Each
// access method supplies one Codec for all of its node types; the pool
// handles the meta page itself.
type Codec interface {
	// EncodePage serializes v. It must not retain v.
	EncodePage(v any) ([]byte, error)
	// DecodePage parses bytes produced by EncodePage. The decoded page
	// may alias b — every tree's codec decodes its keys and values as
	// capacity-capped subslices of the image — so b must never be
	// modified afterwards. That holds for every Disk here: an image is
	// replaced whole on write, never patched. It also requires that the
	// access method never mutates a decoded key or value in place: values
	// are only ever replaced with fresh slices.
	DecodePage(b []byte) (any, error)
}

// SuccessorCodec is an optional Codec extension for scan read-ahead: it
// extracts the forward side pointer from a decoded page so the pool's
// prefetcher can chain along a scan's traversal order without help from
// the access method. Return NilPage when the page has no successor (or
// is not a scannable leaf). The pool calls it under the frame's S latch;
// the implementation must only read data.
type SuccessorCodec interface {
	SuccessorHint(data any) PageID
}

// Page images on disk are framed as:
//
//	[0:8]  pageLSN (little endian)
//	[8]    type tag: tagMeta for the meta page, tagUser for codec pages
//	[9:]   content
const (
	tagMeta byte = 0
	tagUser byte = 1
)

var errShortImage = errors.New("storage: page image too short")

func frameImage(pageLSN uint64, tag byte, content []byte) []byte {
	img := make([]byte, 9+len(content))
	binary.LittleEndian.PutUint64(img[0:8], pageLSN)
	img[8] = tag
	copy(img[9:], content)
	return img
}

func unframeImage(img []byte) (pageLSN uint64, tag byte, content []byte, err error) {
	if len(img) < 9 {
		return 0, 0, nil, errShortImage
	}
	return binary.LittleEndian.Uint64(img[0:8]), img[8], img[9:], nil
}

// encodeFrameData serializes a frame's decoded contents using the store
// codec or the built-in meta codec.
func (p *Pool) encodeFrameData(data any) (tag byte, content []byte, err error) {
	if m, ok := data.(*Meta); ok {
		return tagMeta, m.encode(), nil
	}
	content, err = p.codec.EncodePage(data)
	return tagUser, content, err
}

// decodeFrameData parses a stable image's content portion.
func (p *Pool) decodeFrameData(tag byte, content []byte) (any, error) {
	switch tag {
	case tagMeta:
		return decodeMeta(content)
	case tagUser:
		return p.codec.DecodePage(content)
	default:
		return nil, fmt.Errorf("storage: unknown page tag %d", tag)
	}
}
