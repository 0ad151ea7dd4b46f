package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"repro/internal/keys"
)

// valueLen is the size of every user value the benchmark writes.
const valueLen = 100

// A value embeds its key and a writer sequence number, then a filler
// derived from both, so any read can be checked for belonging to its own
// key and an after-restart read can be matched against the exact write an
// oracle expects:
//
//	'k' key(16 hex) 's' seq(16 hex) ':' filler(65)
const (
	valKeyOff  = 1
	valSeqOff  = 18
	valFillOff = 35
)

const hexDigits = "0123456789abcdef"

func putHex(b []byte, v uint64) {
	for i := 15; i >= 0; i-- {
		b[i] = hexDigits[v&0xf]
		v >>= 4
	}
}

func getHex(b []byte) (uint64, bool) {
	var v uint64
	for _, c := range b[:16] {
		switch {
		case c >= '0' && c <= '9':
			v = v<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			v = v<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	return v, true
}

func fillByte(key, seq uint64, i int) byte {
	h := key*0x9e3779b97f4a7c15 ^ seq*0xbf58476d1ce4e5b9 ^ uint64(i)*0x94d049bb133111eb
	return 'a' + byte((h>>40)%26)
}

// makeValue writes the value for (key, seq) into buf, which must hold
// valueLen bytes, and returns it.
func makeValue(buf []byte, key, seq uint64) []byte {
	v := buf[:valueLen]
	v[0] = 'k'
	putHex(v[valKeyOff:], key)
	v[valKeyOff+16] = 's'
	putHex(v[valSeqOff:], seq)
	v[valSeqOff+16] = ':'
	for i := valFillOff; i < valueLen; i++ {
		v[i] = fillByte(key, seq, i)
	}
	return v
}

// checkValue verifies that v is a well-formed value written for key and
// returns its sequence number.
func checkValue(key uint64, v []byte) (uint64, error) {
	if len(v) != valueLen || v[0] != 'k' || v[valKeyOff+16] != 's' || v[valSeqOff+16] != ':' {
		return 0, fmt.Errorf("key %d: malformed value %q", key, v)
	}
	k, ok := getHex(v[valKeyOff:])
	if !ok || k != key {
		return 0, fmt.Errorf("key %d: value belongs to key %d", key, k)
	}
	seq, ok := getHex(v[valSeqOff:])
	if !ok {
		return 0, fmt.Errorf("key %d: bad sequence field", key)
	}
	for i := valFillOff; i < valueLen; i++ {
		if v[i] != fillByte(key, seq, i) {
			return 0, fmt.Errorf("key %d seq %d: corrupt filler at byte %d", key, seq, i)
		}
	}
	return seq, nil
}

func keyNum(k keys.Key) uint64 { return binary.BigEndian.Uint64(k) }

// writeID makes a writer sequence number unique across clients.
func writeID(client int, n uint64) uint64 { return uint64(client+1)<<48 | n }

// keyGen draws one client's keys. Each client owns its generator, seeded
// from the workload seed and its client number, so the same seed always
// yields the same per-client input stream.
type keyGen struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	n    uint64
}

// zipfS is the key-popularity skew of the zipf workloads.
const zipfS = 1.1

func newKeyGen(seed int64, client int, n int) *keyGen {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(client)*7919 + 1))
	return &keyGen{rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, uint64(n-1)), n: uint64(n)}
}

// scramble spreads popularity ranks over the key space (YCSB's scrambled
// zipfian): hot keys land on different leaves, so contention is on keys,
// not on one hot leaf. Multiplying by a prime that does not divide n is a
// bijection on [0, n); ranks stay below 2^32, so the product cannot wrap.
func (g *keyGen) scramble(rank uint64) uint64 { return scrambleN(rank, g.n) }

func scrambleN(i, n uint64) uint64 { return (i*2654435761 + 12345) % n }

func (g *keyGen) zipfKey() uint64         { return g.scramble(g.zipf.Uint64()) }
func (g *keyGen) uniform(n uint64) uint64 { return uint64(g.rng.Int63n(int64(n))) }
func (g *keyGen) percent() int            { return g.rng.Intn(100) }
