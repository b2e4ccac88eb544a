// Package loadgen is the repository's one load-generation library, shared
// by dbbench, netbench, internal/bench and the examples: the key and
// self-validating value codec, the key choosers, the op-mix table
// (db_bench micro kinds, wire phases and YCSB LOAD/A-F), the closed-loop
// runner with its outcome taxonomy and report line, the BENCH json
// emitter, the acked-write journal, the INFO parser, and the one place
// every store-shaping command-line flag is declared.
package loadgen

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync/atomic"
)

// Key renders key index i as a fixed-width 16-byte key (db_bench style).
func Key(i uint64) []byte { return appendKey(make([]byte, 0, 16), i) }

func appendKey(b []byte, i uint64) []byte {
	b = append(b, "user"...)
	return appendPadded(b, i, 12)
}

// appendPadded appends v in decimal, zero-padded to at least width digits.
func appendPadded(b []byte, v uint64, width int) []byte {
	var tmp [20]byte
	d := strconv.AppendUint(tmp[:0], v, 10)
	for n := len(d); n < width; n++ {
		b = append(b, '0')
	}
	return append(b, d...)
}

// Value renders the self-validating value of key index i at write
// sequence seq: the header "s<seq>|<key>|" followed by pseudo-random
// padding (a function of i and seq) up to size bytes. A size below the
// header length yields the bare header. Load drivers whose values
// depend on the key alone write seq 0; the crash harness counts seq up
// per key so a recovered value names the write it came from.
func Value(i uint64, seq int64, size int) []byte {
	v := make([]byte, 0, max(size, 32))
	v = append(v, 's')
	v = appendPadded(v, uint64(seq), 8)
	v = append(v, '|')
	v = appendKey(v, i)
	v = append(v, '|')
	state := i*0x9E3779B97F4A7C15 + uint64(seq)*0xC2B2AE3D27D4EB4F + 1
	var b [8]byte
	for len(v) < size {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		binary.LittleEndian.PutUint64(b[:], state)
		v = append(v, b[:min(8, size-len(v))]...)
	}
	return v
}

// Verify checks that v is exactly the value Value produced for key
// index i at some sequence in [lo, hi] and returns that sequence. It
// rejects a malformed header, another key's value, a sequence outside
// the window (below lo: an acknowledged write was lost; above hi: a
// write nobody issued) and any flipped byte in the padding.
func Verify(i uint64, v []byte, lo, hi int64) (int64, error) {
	head, rest, ok := bytes.Cut(v, []byte{'|'})
	if !ok || len(head) < 2 || head[0] != 's' {
		return 0, fmt.Errorf("no seq header in %.48q", v)
	}
	seq, err := strconv.ParseInt(string(head[1:]), 10, 64)
	if err != nil || seq < 0 {
		return 0, fmt.Errorf("bad seq header in %.48q", v)
	}
	if key, _, ok := bytes.Cut(rest, []byte{'|'}); !ok || !bytes.Equal(key, Key(i)) {
		return 0, fmt.Errorf("key echo mismatch in %.48q (want %s)", v, Key(i))
	}
	if seq < lo || seq > hi {
		return seq, fmt.Errorf("seq %d outside [%d, %d] in %.48q", seq, lo, hi, v)
	}
	if !bytes.Equal(v, Value(i, seq, len(v))) {
		return seq, fmt.Errorf("padding corrupted in %.48q", v)
	}
	return seq, nil
}

// ---------------------------------------------------------------------------
// Distributions
// ---------------------------------------------------------------------------

// Chooser selects key indexes in [0, n).
type Chooser interface {
	Next() uint64
}

// Uniform picks uniformly.
type Uniform struct {
	n uint64
	r *rand.Rand
}

// NewUniform creates a uniform chooser over [0, n).
func NewUniform(n uint64, seed int64) *Uniform {
	return &Uniform{n: n, r: rand.New(rand.NewSource(seed))}
}

// Next implements Chooser.
func (u *Uniform) Next() uint64 { return u.r.Uint64() % u.n }

// Sequential walks 0, 1, 2, … (wrapping at n).
type Sequential struct {
	n   uint64
	cur atomic.Uint64
}

// NewSequential creates a sequential chooser over [0, n).
func NewSequential(n uint64) *Sequential { return &Sequential{n: n} }

// Next implements Chooser.
func (s *Sequential) Next() uint64 { return (s.cur.Add(1) - 1) % s.n }

// Zipfian is the YCSB-standard zipfian generator (theta = 0.99 by
// default) with scrambling, so the hot items are spread over the key
// space rather than clustered at low indexes.
type Zipfian struct {
	n            uint64
	theta        float64
	alpha        float64
	zetan, zeta2 float64
	eta          float64
	r            *rand.Rand
	scramble     bool
}

// ZipfTheta is YCSB's default skew.
const ZipfTheta = 0.99

// NewZipfian creates a scrambled zipfian chooser over [0, n).
func NewZipfian(n uint64, seed int64) *Zipfian {
	return newZipf(n, ZipfTheta, seed, true)
}

func newZipf(n uint64, theta float64, seed int64, scramble bool) *Zipfian {
	z := &Zipfian{n: n, theta: theta, r: rand.New(rand.NewSource(seed)), scramble: scramble}
	z.zetan = zeta(n, theta)
	z.zeta2 = zeta(2, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

func zeta(n uint64, theta float64) float64 {
	// Exact for small n; sampled approximation for large n (the classic
	// YCSB implementation precomputes; sampling keeps setup O(1e5) while
	// staying within ~1% of the true zeta).
	const exactLimit = 100000
	if n <= exactLimit {
		sum := 0.0
		for i := uint64(1); i <= n; i++ {
			sum += 1 / math.Pow(float64(i), theta)
		}
		return sum
	}
	sum := zeta(exactLimit, theta)
	// Integral approximation of the tail.
	sum += (math.Pow(float64(n), 1-theta) - math.Pow(float64(exactLimit), 1-theta)) / (1 - theta)
	return sum
}

// Next implements Chooser.
func (z *Zipfian) Next() uint64 {
	u := z.r.Float64()
	uz := u * z.zetan
	var v uint64
	switch {
	case uz < 1.0:
		v = 0
	case uz < 1.0+math.Pow(0.5, z.theta):
		v = 1
	default:
		v = uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	}
	if v >= z.n {
		v = z.n - 1
	}
	if z.scramble {
		return scramble64(v) % z.n
	}
	return v
}

// scramble64 is the murmur3 finalizer — a full-entropy bijection on
// uint64, so scrambled zipfian spreads the hot items across the whole key
// space (YCSB's ScrambledZipfian behaviour).
func scramble64(v uint64) uint64 {
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	v *= 0xc4ceb9fe1a85ec53
	v ^= v >> 33
	return v
}

// Latest favours recently inserted keys (YCSB workload D): it draws a
// zipfian offset back from the current insertion frontier.
type Latest struct {
	frontier *atomic.Uint64 // shared with the inserter
	z        *Zipfian
}

// NewLatest creates a latest chooser whose frontier tracks insertCount.
func NewLatest(insertCount *atomic.Uint64, seed int64) *Latest {
	return &Latest{
		frontier: insertCount,
		z:        newZipf(1<<40, ZipfTheta, seed, false),
	}
}

// Next implements Chooser.
func (l *Latest) Next() uint64 {
	n := l.frontier.Load()
	if n == 0 {
		return 0
	}
	off := l.z.Next() % n
	return n - 1 - off
}

// Dists lists the key distributions NewChooser accepts.
var Dists = []string{"uniform", "zipfian", "latest", "seq"}

// NewChooser builds the chooser named dist over [0, n). "latest" draws
// back from frontier, the shared insertion counter.
func NewChooser(dist string, n uint64, frontier *atomic.Uint64, seed int64) (Chooser, error) {
	switch dist {
	case "uniform":
		return NewUniform(n, seed), nil
	case "zipfian":
		return NewZipfian(n, seed), nil
	case "latest":
		return NewLatest(frontier, seed), nil
	case "seq":
		return NewSequential(n), nil
	}
	return nil, fmt.Errorf("unknown distribution %q (valid: %s)", dist, strings.Join(Dists, ", "))
}
