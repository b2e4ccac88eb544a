package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"
)

// The benchmark owns its inputs: PRNG, key choosers, key and value
// encodings and the verifier live here and import nothing from the code
// under test, so a change to the product can neither speed up nor slow
// down the load generator.

const (
	keyLen   = 16
	valueLen = 128
)

// rng is xorshift64* seeded through splitmix64: a fixed algorithm, so the
// same --seed yields the same inputs on every Go version.
type rng struct{ s uint64 }

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// newRNG derives an independent stream from the run seed and a stream
// label (repetition, client, phase).
func newRNG(seed uint64, stream ...uint64) *rng {
	s := splitmix64(seed)
	for _, v := range stream {
		s = splitmix64(s ^ v)
	}
	if s == 0 {
		s = 0x9e3779b97f4a7c15
	}
	return &rng{s: s}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

// intn returns a value in [0, n). The modulo bias is below 2^-40 for the
// key-space sizes used here.
func (r *rng) intn(n uint64) uint64 { return r.next() % n }

// float64 returns a value in [0, 1).
func (r *rng) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// chooser picks key ids in [0, n).
type chooser interface {
	pick(r *rng) uint64
}

type uniformChooser struct{ n uint64 }

func (u uniformChooser) pick(r *rng) uint64 { return r.intn(u.n) }

// zipfChooser is the YCSB scrambled zipfian generator (Gray et al.,
// "Quickly generating billion-record synthetic databases"): rank 0 is the
// most popular item, and ranks are scattered over the id space by an
// FNV-1a hash so popular keys do not cluster in one key range.
type zipfChooser struct {
	n           uint64
	alpha, zeta float64
	eta, half   float64
}

func newZipf(n uint64, theta float64) *zipfChooser {
	z := &zipfChooser{n: n}
	for i := uint64(1); i <= n; i++ {
		z.zeta += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + 1/math.Pow(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/z.zeta)
	z.half = 1 + math.Pow(0.5, theta)
	return z
}

// rank draws a popularity rank in [0, n).
func (z *zipfChooser) rank(r *rng) uint64 {
	u := r.float64()
	uz := u * z.zeta
	if uz < 1 {
		return 0
	}
	if uz < z.half {
		return 1
	}
	v := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	return v
}

func fnv1a64(x uint64) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= 0x100000001b3
		x >>= 8
	}
	return h
}

func (z *zipfChooser) pick(r *rng) uint64 { return fnv1a64(z.rank(r)) % z.n }

// ownedBy maps id to the nearest id owned by client: every key has exactly
// one writer (client = id mod numClients), so the last acknowledged
// version of every key is known without cross-client coordination.
func ownedBy(id uint64, client int) uint64 {
	return id - id%numClients + uint64(client)
}

// putKey writes the 16-byte key of id into dst.
func putKey(dst []byte, id uint64) {
	_ = dst[keyLen-1]
	copy(dst, "user")
	for i := keyLen - 1; i >= 4; i-- {
		dst[i] = byte('0' + id%10)
		id /= 10
	}
}

// putValue writes the 128-byte value of (id, version) into dst: the id and
// version in clear, then a pattern derived from both, so a verifier can
// tell a torn, misdirected or stale value from the right one.
func putValue(dst []byte, id uint64, version uint32) {
	_ = dst[valueLen-1]
	binary.LittleEndian.PutUint64(dst[0:8], id)
	binary.LittleEndian.PutUint32(dst[8:12], version)
	binary.LittleEndian.PutUint32(dst[12:16], ^version)
	s := id<<32 ^ uint64(version)
	for off := 16; off < valueLen; off += 8 {
		s = splitmix64(s)
		binary.LittleEndian.PutUint64(dst[off:off+8], s)
	}
}

// checkValue verifies that v is the value pattern of id at some version
// and returns that version.
func checkValue(v []byte, id uint64) (uint32, error) {
	if len(v) != valueLen {
		return 0, fmt.Errorf("value length %d, want %d", len(v), valueLen)
	}
	if got := binary.LittleEndian.Uint64(v[0:8]); got != id {
		return 0, fmt.Errorf("value belongs to key id %d, want %d", got, id)
	}
	version := binary.LittleEndian.Uint32(v[8:12])
	var want [valueLen]byte
	putValue(want[:], id, version)
	if string(v) != string(want[:]) {
		return 0, fmt.Errorf("value pattern of key id %d version %d is damaged", id, version)
	}
	return version, nil
}

// versions tracks, per key id, the newest version handed to the store and
// the newest one the store acknowledged. Only the key's owner writes
// either; any client may read them to bound what a read may return.
type versions struct {
	issued []atomic.Uint32
	acked  []atomic.Uint32
	// live counts the distinct keys written so far.
	live atomic.Int64
}

func newVersions(n uint64) *versions {
	return &versions{issued: make([]atomic.Uint32, n), acked: make([]atomic.Uint32, n)}
}

// issue hands out the next version of id, which its owner is about to write.
func (vs *versions) issue(id uint64) uint32 {
	v := vs.issued[id].Add(1)
	if v == 1 {
		vs.live.Add(1)
	}
	return v
}

// checkRead verifies a read of id: the value must be well formed and its
// version must lie between the version acknowledged before the read was
// submitted (floor: read-your-writes, no stale hit) and the newest version
// issued by the time it completed.
func (vs *versions) checkRead(v []byte, id uint64, floor uint32) error {
	got, err := checkValue(v, id)
	if err != nil {
		return err
	}
	if got < floor {
		return fmt.Errorf("stale read of key id %d: version %d, acknowledged %d", id, got, floor)
	}
	if ceil := vs.issued[id].Load(); got > ceil {
		return fmt.Errorf("read of key id %d returned version %d, newest issued %d", id, got, ceil)
	}
	return nil
}
