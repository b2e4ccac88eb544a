// Package keyspace implements p2KVS's horizontal key-space partitioning
// (§4.2): a modular hash assigns every key to one of N workers, giving
// load balance, O(1) dispatch, and zero read amplification (partitions
// never overlap). A range partitioner is included as the ablation
// alternative the paper mentions (dynamic key-ranges, [27]).
package keyspace

import (
	"fmt"
	"hash/fnv"
	"sort"

	"p2kvs/internal/bloom"
)

// Partitioner maps keys to worker IDs.
type Partitioner interface {
	// Pick returns the worker for a key: W_key = Hash(key) % N.
	Pick(key []byte) int
	// N is the number of partitions.
	N() int
}

// Hash is the paper's default modular-hash partitioner.
type Hash struct {
	n int
}

// NewHash creates a hash partitioner over n workers.
func NewHash(n int) Hash {
	if n < 1 {
		n = 1
	}
	return Hash{n: n}
}

// Pick implements Partitioner.
func (h Hash) Pick(key []byte) int { return int(bloom.Hash(key)) % h.n }

// N implements Partitioner.
func (h Hash) N() int { return h.n }

// Consistent is the consistent-hashing partitioner the paper names as
// the future-work alternative to modular hashing (§4.2, citing Karger et
// al.): worker IDs are hashed onto a ring at Replicas virtual points;
// a key maps to the first point clockwise from its own hash. Growing
// from N to N+1 workers relocates only ~1/(N+1) of the keys, instead of
// reshuffling nearly everything as Hash does — the property that makes
// runtime scaling (core.Store.Reshard) cheap.
type Consistent struct {
	n        int
	replicas int
	points   []uint64 // sorted ring positions
	owner    []int    // owner[i] = worker for points[i]
}

// DefaultReplicas is the virtual-node count per worker (the moved fraction
// of a grow N→N+1 approaches the ideal 1/(N+1) as replicas grows; 64 keeps
// lookup cheap).
const DefaultReplicas = 64

// NewConsistent creates a consistent-hash partitioner over n workers.
func NewConsistent(n, replicas int) Consistent {
	if n < 1 {
		n = 1
	}
	if replicas < 1 {
		replicas = DefaultReplicas
	}
	c := Consistent{n: n, replicas: replicas}
	for w := 0; w < n; w++ {
		for r := 0; r < replicas; r++ {
			point := fnv64([]byte(fmt.Sprintf("worker-%d-replica-%d", w, r)))
			c.points = append(c.points, point)
			c.owner = append(c.owner, w)
		}
	}
	// Sort points with owners in lockstep.
	idx := make([]int, len(c.points))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return c.points[idx[a]] < c.points[idx[b]] })
	points := make([]uint64, len(idx))
	owner := make([]int, len(idx))
	for i, j := range idx {
		points[i], owner[i] = c.points[j], c.owner[j]
	}
	c.points, c.owner = points, owner
	return c
}

// fnv64 is FNV-1a finished with the murmur3 finalizer: plain FNV output
// is visibly structured on short sequential keys, which shows up as ring
// imbalance; the finalizer restores full avalanche.
func fnv64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	v := h.Sum64()
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	v *= 0xc4ceb9fe1a85ec53
	v ^= v >> 33
	return v
}

// Pick implements Partitioner.
func (c Consistent) Pick(key []byte) int {
	h := fnv64(key)
	i := sort.Search(len(c.points), func(i int) bool { return c.points[i] >= h })
	if i == len(c.points) {
		i = 0
	}
	return c.owner[i]
}

// N implements Partitioner.
func (c Consistent) N() int { return c.n }

// Replicas reports the virtual-point count per worker: a ring over another
// worker count built with it keeps every surviving worker's points.
func (c Consistent) Replicas() int { return c.replicas }

// Range partitions by static split points: keys < splits[0] go to worker
// 0, etc. Contiguous key ranges stay on one worker (range queries touch
// fewer instances) at the cost of skew sensitivity — the trade-off the
// partitioning ablation demonstrates.
type Range struct {
	splits [][]byte // len == n-1, ascending
}

// NewRange creates a range partitioner with the given ascending split
// points; the number of partitions is len(splits)+1.
func NewRange(splits [][]byte) Range {
	return Range{splits: splits}
}

// Pick implements Partitioner.
func (r Range) Pick(key []byte) int {
	return sort.Search(len(r.splits), func(i int) bool {
		return string(key) < string(r.splits[i])
	})
}

// N implements Partitioner.
func (r Range) N() int { return len(r.splits) + 1 }
