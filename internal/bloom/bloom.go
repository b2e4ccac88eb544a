// Package bloom implements the per-SSTable bloom filters that keep LSM
// point lookups from touching every level (Figure 2's read path ❷). It
// follows the LevelDB/RocksDB "double hashing" construction: one 32-bit
// hash, k probes derived by repeatedly adding a rotated delta.
//
// Hash is also the hash partitioner's: keyspace.Hash.Pick routes a key by
// Hash(key) % n, so the keys of one worker share Hash's residue mod n. A
// filter built from one worker's keys inherits that: its bit count is a
// multiple of 8, so with n = 4 every first probe lands on a quarter of the
// bits, and its false-positive rate rises (5.3-5.8 % instead of 1.3 % at 10
// bits a key over 50 k keys). Anything else indexed by Hash must mix it
// first, as the memtable's filter does.
package bloom

// Filter builds and queries a bloom filter.
type Filter struct {
	bitsPerKey int
	k          int
}

// New creates a filter policy with the given bits-per-key budget
// (10 bits/key ≈ 1% false-positive rate, the RocksDB default).
func New(bitsPerKey int) *Filter {
	if bitsPerKey < 1 {
		bitsPerKey = 1
	}
	k := int(float64(bitsPerKey) * 0.69) // ln(2) * bits/key
	if k < 1 {
		k = 1
	}
	if k > 30 {
		k = 30
	}
	return &Filter{bitsPerKey: bitsPerKey, k: k}
}

// Build returns the encoded filter block for keys given by their Hash,
// one element per key added (duplicates count towards the size). The last
// byte stores k so readers are self-describing.
func (f *Filter) Build(hashes []uint32) []byte {
	bits := len(hashes) * f.bitsPerKey
	if bits < 64 {
		bits = 64
	}
	nbytes := (bits + 7) / 8
	bits = nbytes * 8
	buf := make([]byte, nbytes+1)
	buf[nbytes] = byte(f.k)
	for _, h := range hashes {
		delta := h>>17 | h<<15
		for i := 0; i < f.k; i++ {
			pos := h % uint32(bits)
			buf[pos/8] |= 1 << (pos % 8)
			h += delta
		}
	}
	return buf
}

// MayContain reports whether the key whose Hash is h is possibly in the
// filter encoded by Build. False means definitely absent.
func MayContain(filter []byte, h uint32) bool {
	if len(filter) < 2 {
		return true // degenerate filters match everything
	}
	nbytes := len(filter) - 1
	bits := uint32(nbytes * 8)
	k := int(filter[nbytes])
	if k > 30 {
		return true // reserved for future encodings
	}
	delta := h>>17 | h<<15
	for i := 0; i < k; i++ {
		pos := h % bits
		if filter[pos/8]&(1<<(pos%8)) == 0 {
			return false
		}
		h += delta
	}
	return true
}

// Hash is the 32-bit Murmur-like hash LevelDB uses for its filters. The
// key-space partitioner routes by it too (see the package comment), and a
// point lookup computes it once for every filter it consults.
func Hash(data []byte) uint32 {
	const (
		seed = 0xbc9f1d34
		m    = 0xc6a4a793
	)
	h := uint32(seed) ^ uint32(len(data))*m
	for ; len(data) >= 4; data = data[4:] {
		h += uint32(data[0]) | uint32(data[1])<<8 | uint32(data[2])<<16 | uint32(data[3])<<24
		h *= m
		h ^= h >> 16
	}
	switch len(data) {
	case 3:
		h += uint32(data[2]) << 16
		fallthrough
	case 2:
		h += uint32(data[1]) << 8
		fallthrough
	case 1:
		h += uint32(data[0])
		h *= m
		h ^= h >> 24
	}
	return h
}
