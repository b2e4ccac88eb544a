package memtable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"p2kvs/internal/bloom"
	"p2kvs/internal/ikey"
	"p2kvs/internal/keyspace"
	"p2kvs/internal/raceflag"
)

// testBudget is the engine's default memtable budget: 4,096 filter words.
const testBudget = 4 << 20

func both() map[string]bool {
	return map[string]bool{"concurrent": true, "basic": false}
}

// get is a lookup's probe of one memtable: the key hashed, then Get.
func get(m *MemTable, ukey []byte, seq uint64) ([]byte, bool, bool) {
	return m.Get(ukey, bloom.Hash(ukey), seq)
}

// unfiltered sets every bit of m's filter, so every Get descends: what the
// list alone answers, for absent keys too.
func unfiltered(m *MemTable) *MemTable {
	for i := range m.filter {
		m.filter[i].Store(^uint64(0))
	}
	return m
}

func TestAddGet(t *testing.T) {
	for name, conc := range both() {
		t.Run(name, func(t *testing.T) {
			m := New(conc, testBudget)
			m.Add(1, ikey.KindSet, []byte("k1"), []byte("v1"))
			m.Add(2, ikey.KindSet, []byte("k2"), []byte("v2"))

			v, found, deleted := get(m, []byte("k1"), ikey.MaxSeq)
			if !found || deleted || string(v) != "v1" {
				t.Fatalf("Get(k1) = %q %v %v", v, found, deleted)
			}
			if _, found, _ := get(m, []byte("nope"), ikey.MaxSeq); found {
				t.Fatal("found absent key")
			}
			if m.Len() != 2 || m.Empty() {
				t.Fatalf("len=%d", m.Len())
			}
		})
	}
}

func TestVersionsAndSnapshots(t *testing.T) {
	for name, conc := range both() {
		t.Run(name, func(t *testing.T) {
			m := New(conc, testBudget)
			m.Add(1, ikey.KindSet, []byte("k"), []byte("old"))
			m.Add(5, ikey.KindSet, []byte("k"), []byte("new"))
			m.Add(9, ikey.KindDelete, []byte("k"), nil)

			// Latest: tombstone.
			_, found, deleted := get(m, []byte("k"), ikey.MaxSeq)
			if !found || !deleted {
				t.Fatalf("latest = found=%v deleted=%v", found, deleted)
			}
			// Snapshot at 5: sees "new".
			v, found, deleted := get(m, []byte("k"), 5)
			if !found || deleted || string(v) != "new" {
				t.Fatalf("snap5 = %q %v %v", v, found, deleted)
			}
			// Snapshot at 1: sees "old".
			v, found, deleted = get(m, []byte("k"), 1)
			if !found || deleted || string(v) != "old" {
				t.Fatalf("snap1 = %q %v %v", v, found, deleted)
			}
		})
	}
}

func TestKeyPrefixNoFalseMatch(t *testing.T) {
	// "k" must not match "k2" even though it's a prefix and sorts nearby.
	for name, conc := range both() {
		t.Run(name, func(t *testing.T) {
			for _, m := range []*MemTable{New(conc, testBudget), unfiltered(New(conc, testBudget))} {
				m.Add(1, ikey.KindSet, []byte("k2"), []byte("x"))
				if _, found, _ := get(m, []byte("k"), ikey.MaxSeq); found {
					t.Fatal("prefix matched wrong key")
				}
			}
		})
	}
}

func TestIteratorOrderAndValues(t *testing.T) {
	for name, conc := range both() {
		t.Run(name, func(t *testing.T) {
			m := New(conc, testBudget)
			for i := 9; i >= 0; i-- {
				m.Add(uint64(10-i), ikey.KindSet, []byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%d", i)))
			}
			it := m.NewIterator()
			i := 0
			for it.SeekToFirst(); it.Valid(); it.Next() {
				uk := ikey.UserKey(it.Key())
				if string(uk) != fmt.Sprintf("k%02d", i) {
					t.Fatalf("entry %d = %q", i, uk)
				}
				if string(it.Value()) != fmt.Sprintf("v%d", i) {
					t.Fatalf("value %d = %q", i, it.Value())
				}
				i++
			}
			if i != 10 {
				t.Fatalf("iterated %d", i)
			}
			// Seek.
			it.Seek(ikey.SeekKey([]byte("k05"), ikey.MaxSeq))
			if !it.Valid() || string(ikey.UserKey(it.Key())) != "k05" {
				t.Fatalf("seek landed on %q", it.Key())
			}
		})
	}
}

func TestApproximateSizeGrows(t *testing.T) {
	m := New(true, testBudget)
	if m.ApproximateSize() != 0 {
		t.Fatal("fresh memtable has size")
	}
	m.Add(1, ikey.KindSet, []byte("key"), make([]byte, 1000))
	if m.ApproximateSize() < 1000 {
		t.Fatalf("size = %d", m.ApproximateSize())
	}
	if m.ReservedBytes() < 1000 {
		t.Fatalf("reserved = %d, must cover the entry", m.ReservedBytes())
	}
}

// TestReservedTracksApproximateSize: ApproximateSize charges an entry its
// encoded length plus 32 bytes of node overhead, and that is what decides
// rotation. An entry lives only in the arena and its node is 28 bytes plus 4
// a level (33 on average), so what a memtable actually holds when it rotates
// is that estimate plus the unused tails of its last chunks and the filter
// (a 128th of the budget) — within a tenth (1.19x before the nodes lost
// their pointers), for the benchmark's record shape (16-byte key, 128-byte
// value), on both skiplist flavours. ReservedBytes counts the filter from
// the start; ApproximateSize, which sets the flush cadence, does not.
func TestReservedTracksApproximateSize(t *testing.T) {
	const budget = 16 << 20
	for name, concurrent := range both() {
		t.Run(name, func(t *testing.T) {
			m := New(concurrent, budget)
			slabs := func() int64 { return m.arena.Size() + m.list.ReservedBytes() }
			if got, want := m.ReservedBytes()-slabs(), int64(budget/128); got != want {
				t.Fatalf("an empty memtable of a %d-byte budget reserves %d filter bytes, want %d", budget, got, want)
			}
			key, val := make([]byte, 16), make([]byte, 128)
			for seq := uint64(1); m.ApproximateSize() < budget; seq++ {
				binary.BigEndian.PutUint64(key[8:], seq*0x9E3779B97F4A7C15)
				m.Add(seq, ikey.KindSet, key, val)
			}
			approx, reserved := m.ApproximateSize(), m.ReservedBytes()
			if reserved != slabs()+budget/128 {
				t.Fatalf("reserved %d, want the slabs' %d plus the filter's %d", reserved, slabs(), budget/128)
			}
			t.Logf("%d entries: approximate %d, reserved %d (%.3fx)", m.Len(), approx, reserved, float64(reserved)/float64(approx))
			if float64(reserved) > 1.10*float64(approx) {
				t.Errorf("reserved %d bytes against an estimate of %d: more than 1.10x", reserved, approx)
			}
			if reserved < approx*3/4 {
				t.Errorf("reserved %d bytes against an estimate of %d: the accessor misses a slab", reserved, approx)
			}
		})
	}
}

// TestAddAllocs pins Add at its slab refills: an arena chunk per MiB of
// entries and a node chunk per few thousand, each with the copy of the chunk
// table that publishes it — nothing per entry.
func TestAddAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation pins are not meaningful under the race detector")
	}
	for name, concurrent := range both() {
		m := New(concurrent, testBudget)
		key, val := make([]byte, 16), make([]byte, 128)
		seq := uint64(0)
		// AllocsPerRun reports whole allocations per run: a run is 10,000 Adds.
		got := testing.AllocsPerRun(10, func() {
			for i := 0; i < 10_000; i++ {
				seq++
				binary.BigEndian.PutUint64(key[8:], seq*0x9E3779B97F4A7C15)
				m.Add(seq, ikey.KindSet, key, val)
			}
		}) / 10_000
		t.Logf("%s: %.4f allocs/Add", name, got)
		if got > 0.01 {
			t.Errorf("%s: %.4f allocs/Add, want <= 0.01 (slab refills only)", name, got)
		}
	}
}

// TestGetSeekAllocs: a lookup names what it looks for as (user key, trailer)
// and the list compares in place, so neither Get nor Seek allocates, nothing
// is pooled, and a key built on the caller's stack stays there. An absent
// key's Get, which the filter usually answers alone, allocates nothing
// either, filtered or descending.
func TestGetSeekAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation pins are not meaningful under the race detector")
	}
	for name, concurrent := range both() {
		m, open := New(concurrent, testBudget), unfiltered(New(concurrent, testBudget))
		for i := 0; i < 1000; i++ {
			m.Add(uint64(i+1), ikey.KindSet, []byte(fmt.Sprintf("key-%012d", i)), []byte("v"))
			open.Add(uint64(i+1), ikey.KindSet, []byte(fmt.Sprintf("key-%012d", i)), []byte("v"))
		}
		it := m.NewIterator()
		if got := testing.AllocsPerRun(100, func() {
			if _, found, _ := get(m, []byte("key-000000000500"), ikey.MaxSeq); !found {
				t.Fatal("lost key")
			}
			var seek [24]byte
			it.Seek(ikey.Encode(seek[:0], []byte("key-000000000500"), ikey.MaxSeq, ikey.KindSet))
			if !it.Valid() {
				t.Fatal("Seek lost key")
			}
		}); got != 0 {
			t.Errorf("%s: %.0f allocs per Get+Seek, want 0", name, got)
		}
		for _, m := range []*MemTable{m, open} {
			if got := testing.AllocsPerRun(100, func() {
				if _, found, _ := get(m, []byte("key-absent"), ikey.MaxSeq); found {
					t.Fatal("found absent key")
				}
			}); got != 0 {
				t.Errorf("%s: %.0f allocs per absent-key Get, want 0", name, got)
			}
		}
	}
}

// version is one Add; its value says which.
type version struct {
	ukey []byte
	seq  uint64
	kind ikey.Kind
}

func (v version) ikey() []byte  { return ikey.Make(v.ukey, v.seq, v.kind) }
func (v version) value() []byte { return []byte(fmt.Sprintf("%x@%d/%d", v.ukey, v.seq, v.kind)) }

// checkOrder adds vs (unique internal keys, in the order given) to a memtable
// of each flavour and requires what ikey.Compare requires of a sorted slice:
// iteration in that order with each value beside its key, Seek to any of them
// landing on it, Get of its user key at its sequence number answering with it.
func checkOrder(t *testing.T, vs []version) {
	t.Helper()
	want := append([]version(nil), vs...)
	sort.Slice(want, func(i, j int) bool { return ikey.Compare(want[i].ikey(), want[j].ikey()) < 0 })
	for name, concurrent := range both() {
		m := New(concurrent, testBudget)
		for _, v := range vs {
			m.Add(v.seq, v.kind, v.ukey, v.value())
		}
		it := m.NewIterator()
		i := 0
		for it.SeekToFirst(); it.Valid(); it.Next() {
			if i >= len(want) || !bytes.Equal(it.Key(), want[i].ikey()) || !bytes.Equal(it.Value(), want[i].value()) {
				t.Fatalf("%s: entry %d is %x = %q, want %x", name, i, it.Key(), it.Value(), want[min(i, len(want)-1)].ikey())
			}
			i++
		}
		if i != len(want) {
			t.Fatalf("%s: iterated %d of %d", name, i, len(want))
		}
		for _, v := range want {
			if it.Seek(v.ikey()); !it.Valid() || !bytes.Equal(it.Key(), v.ikey()) {
				t.Fatalf("%s: Seek(%x) did not land on it", name, v.ikey())
			}
			val, found, deleted := get(m, v.ukey, v.seq)
			if !found || deleted != (v.kind == ikey.KindDelete) || (!deleted && !bytes.Equal(val, v.value())) {
				// A delete and a set of one key at one sequence number: the set sorts first.
				if twin := (version{v.ukey, v.seq, ikey.KindSet}); v.kind == ikey.KindDelete && found && bytes.Equal(val, twin.value()) {
					continue
				}
				t.Fatalf("%s: Get(%x, %d) = %q found=%v deleted=%v", name, v.ukey, v.seq, val, found, deleted)
			}
		}
	}
}

// abbrevEdgeKeys are user keys around every way two 16-byte abbreviations
// can tie or mislead: the empty key, keys shorter than an abbreviation word
// and than the abbreviation, a key against itself zero-extended, runs of
// 0xFF, keys equal in their first 8 and first 16 bytes.
var abbrevEdgeKeys = [][]byte{
	{}, {0}, {0, 0}, []byte("a"), []byte("ab"), []byte("ab\x00"), []byte("ab\x00\x00"), []byte("ab\x01"),
	[]byte("abcdefgh"), []byte("abcdefgh\x00"), []byte("abcdefghi"),
	[]byte("abcdefghijklmno"), []byte("abcdefghijklmnop"), []byte("abcdefghijklmnop\x00"),
	[]byte("abcdefghijklmnopq"), []byte("abcdefghijklmnopr"), []byte("abcdefghijklmnoq"),
	{0xFF}, bytes.Repeat([]byte{0xFF}, 8), bytes.Repeat([]byte{0xFF}, 15), bytes.Repeat([]byte{0xFF}, 16),
	bytes.Repeat([]byte{0xFF}, 17), append(bytes.Repeat([]byte{0xFF}, 16), 0),
	append(bytes.Repeat([]byte{0}, 16), 1), bytes.Repeat([]byte{0}, 16), bytes.Repeat([]byte{0}, 17),
}

// TestOrderMatchesIkeyCompare is the property behind the node layout: the
// abbreviated comparison, with its tie rule, orders exactly as ikey.Compare.
func TestOrderMatchesIkeyCompare(t *testing.T) {
	// Every edge key, every pair of them adjacent in some insertion order.
	var vs []version
	for i, k := range abbrevEdgeKeys {
		vs = append(vs, version{k, uint64(i + 1), ikey.KindSet})
	}
	checkOrder(t, vs)
	for i, j := 0, len(vs)-1; i < j; i, j = i+1, j-1 {
		vs[i], vs[j] = vs[j], vs[i]
	}
	checkOrder(t, vs)

	// One user key at many sequence numbers and both kinds: newest first.
	vs = vs[:0]
	for seq := uint64(1); seq <= 40; seq++ {
		vs = append(vs, version{[]byte("abcdefghijklmnop"), seq * 3, ikey.Kind(seq % 2)})
	}
	vs = append(vs, version{[]byte("abcdefghijklmnop"), 6, ikey.KindSet}, version{[]byte("abcdefghijklmnop"), ikey.MaxSeq, ikey.KindDelete})
	checkOrder(t, vs)

	// An entry larger than an arena chunk, between ordinary ones.
	big := make([]byte, 1<<20+1)
	for name, concurrent := range both() {
		m := New(concurrent, testBudget)
		m.Add(1, ikey.KindSet, []byte("a"), []byte("small"))
		m.Add(2, ikey.KindSet, []byte("b"), big)
		m.Add(3, ikey.KindSet, []byte("c"), []byte("small"))
		if v, found, _ := get(m, []byte("b"), ikey.MaxSeq); !found || len(v) != len(big) {
			t.Fatalf("%s: oversized value came back %d bytes, found=%v", name, len(v), found)
		}
		if v, found, _ := get(m, []byte("c"), ikey.MaxSeq); !found || string(v) != "small" {
			t.Fatalf("%s: Get(c) behind the oversized entry = %q, %v", name, v, found)
		}
	}

	// Random mixes of edge keys, random keys sharing prefixes, sequence numbers and kinds.
	rng := rand.New(rand.NewSource(29))
	for round := 0; round < 30; round++ {
		seen := map[string]bool{}
		vs = vs[:0]
		for len(vs) < 300 {
			k := abbrevEdgeKeys[rng.Intn(len(abbrevEdgeKeys))]
			if rng.Intn(2) == 0 {
				k = append(append([]byte(nil), k...), byte(rng.Intn(3)), byte(rng.Intn(256)))
			}
			v := version{k, uint64(rng.Intn(50)), ikey.Kind(rng.Intn(2))}
			if !seen[string(v.ikey())] {
				seen[string(v.ikey())] = true
				vs = append(vs, v)
			}
		}
		checkOrder(t, vs)
	}
}

// FuzzAbbrevOrder: any two versions sort, seek and read back as ikey.Compare
// says, whichever is added first.
func FuzzAbbrevOrder(f *testing.F) {
	for i, a := range abbrevEdgeKeys {
		b := abbrevEdgeKeys[(i+1)%len(abbrevEdgeKeys)]
		f.Add(a, b, uint64(i), uint64(i+1), true, i%2 == 0)
		f.Add(a, a, uint64(i), uint64(i+1), i%2 == 0, true)
	}
	f.Fuzz(func(t *testing.T, ka, kb []byte, sa, sb uint64, setA, setB bool) {
		kind := func(set bool) ikey.Kind {
			if set {
				return ikey.KindSet
			}
			return ikey.KindDelete
		}
		a, b := version{ka, sa & ikey.MaxSeq, kind(setA)}, version{kb, sb & ikey.MaxSeq, kind(setB)}
		if bytes.Equal(a.ikey(), b.ikey()) {
			t.Skip("internal keys must be unique")
		}
		checkOrder(t, []version{a, b})
		checkOrder(t, []version{b, a})
	})
}

func TestConcurrentAdds(t *testing.T) {
	m := New(true, testBudget)
	var wg sync.WaitGroup
	var seq int64
	var seqMu sync.Mutex
	nextSeq := func() uint64 {
		seqMu.Lock()
		defer seqMu.Unlock()
		seq++
		return uint64(seq)
	}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m.Add(nextSeq(), ikey.KindSet, []byte(fmt.Sprintf("g%d-k%d", g, i)), []byte("v"))
			}
		}(g)
	}
	wg.Wait()
	if m.Len() != 4000 {
		t.Fatalf("len = %d", m.Len())
	}
	for g := 0; g < 8; g++ {
		for i := 0; i < 500; i += 97 {
			if _, found, _ := get(m, []byte(fmt.Sprintf("g%d-k%d", g, i)), ikey.MaxSeq); !found {
				t.Fatalf("lost key g%d-k%d", g, i)
			}
		}
		for i := 500; i < 1000; i++ {
			if _, found, _ := get(m, []byte(fmt.Sprintf("g%d-k%d", g, i)), ikey.MaxSeq); found {
				t.Fatalf("found absent key g%d-k%d", g, i)
			}
		}
	}
}

// TestFilterNeverHidesLinkedKey: writers Add keys while readers Get every
// key whose Add has returned, the newest ones most: the filter's bits are
// set before the node is linked, so no reader misses one. Half the readers
// look at MaxSeq, half at the key's own sequence number. The basic flavour's
// writers take turns, as the engine's write path makes them; its readers do
// not. Run it under -race.
func TestFilterNeverHidesLinkedKey(t *testing.T) {
	const writers, readers, perWriter = 4, 4, 3000
	key := func(w, i int) []byte { return []byte(fmt.Sprintf("w%d-%08d", w, i)) }
	seqOf := func(w, i int) uint64 { return uint64(i*writers + w + 1) }
	for name, concurrent := range both() {
		t.Run(name, func(t *testing.T) {
			m := New(concurrent, 64<<10) // 64 words: a crowded filter
			var (
				added   [writers]atomic.Int64 // keys of each writer whose Add returned
				addMu   sync.Mutex
				writing sync.WaitGroup
				reading sync.WaitGroup
				done    atomic.Bool
			)
			for w := 0; w < writers; w++ {
				writing.Add(1)
				go func(w int) {
					defer writing.Done()
					for i := 0; i < perWriter; i++ {
						if !concurrent {
							addMu.Lock()
						}
						m.Add(seqOf(w, i), ikey.KindSet, key(w, i), []byte("v"))
						if !concurrent {
							addMu.Unlock()
						}
						added[w].Store(int64(i + 1))
					}
				}(w)
			}
			errs := make(chan string, readers)
			for r := 0; r < readers; r++ {
				reading.Add(1)
				go func(r int) {
					defer reading.Done()
					rng := rand.New(rand.NewSource(int64(r)))
					for last := false; !last; runtime.Gosched() { // yield: on two cores spinning readers starve the writers
						last = done.Load()
						w := rng.Intn(writers)
						n := int(added[w].Load())
						if n == 0 {
							continue
						}
						for _, i := range []int{n - 1, rng.Intn(n)} {
							seq := uint64(ikey.MaxSeq)
							if r%2 == 1 {
								seq = seqOf(w, i)
							}
							if _, found, _ := get(m, key(w, i), seq); !found {
								errs <- fmt.Sprintf("reader %d: %s at seq %d not found after its Add returned", r, key(w, i), seq)
								return
							}
						}
					}
				}(r)
			}
			writing.Wait()
			done.Store(true)
			reading.Wait()
			close(errs)
			for e := range errs {
				t.Error(e)
			}
		})
	}
}

// TestFilterFalsePositives: one worker's keys of four share bloom.Hash's
// residue mod 4, so a filter indexed by that hash's low bits would crowd
// them into a quarter of its words. Filled like the benchmark's 4 MiB
// memtable with one partition's keys in the benchmark's format, the filter
// passes at most 2.5 % of that partition's absent keys. An absent key whose
// bloom.Hash equals a present key's passes any filter of that hash: such
// collisions are counted apart and logged, not charged to the filter.
func TestFilterFalsePositives(t *testing.T) {
	const entries, probes = 22500, 20000
	part := keyspace.NewHash(4)
	m := New(true, 4<<20)
	val := make([]byte, 128)
	present := map[uint32]bool{}
	n, fp, collisions := 0, 0, 0
	for i := 0; n < entries+probes; i++ {
		k := []byte(fmt.Sprintf("user%012d", i))
		if part.Pick(k) != 1 {
			continue
		}
		h := bloom.Hash(k)
		switch {
		case n < entries:
			m.Add(uint64(n+1), ikey.KindSet, k, val)
			present[h] = true
		case present[h]:
			collisions++
		case m.filter.mayContain(h):
			fp++
		}
		n++
	}
	rate := float64(fp) / float64(probes-collisions)
	t.Logf("%d entries in %d words (%.1f bits a key): %.2f %% false positives; %d of %d absent keys share a present key's bloom.Hash",
		entries, len(m.filter), float64(64*len(m.filter))/entries, 100*rate, collisions, probes)
	if rate > 0.025 {
		t.Errorf("%.2f %% of one partition's absent keys pass the filter, want <= 2.5 %%", 100*rate)
	}
}

func TestQuickAgainstMap(t *testing.T) {
	// Property: after any op sequence, Get at MaxSeq agrees with a map, for
	// keys never added too, with the filter and without it.
	type op struct {
		Key    uint8 // small key space to force overwrites
		Value  uint16
		Delete bool
	}
	for name, conc := range both() {
		t.Run(name, func(t *testing.T) {
			fn := func(ops []op) bool {
				for _, m := range []*MemTable{New(conc, testBudget), unfiltered(New(conc, testBudget))} {
					model := map[string]string{}
					deleted := map[string]bool{}
					for i, o := range ops {
						k := fmt.Sprintf("key-%d", o.Key%32)
						if o.Delete {
							m.Add(uint64(i+1), ikey.KindDelete, []byte(k), nil)
							delete(model, k)
							deleted[k] = true
						} else {
							v := fmt.Sprintf("v-%d", o.Value)
							m.Add(uint64(i+1), ikey.KindSet, []byte(k), []byte(v))
							model[k] = v
							delete(deleted, k)
						}
					}
					for i := 0; i < 64; i++ { // 32 keys the ops may name, 32 they never do
						k := fmt.Sprintf("key-%d", i)
						v, found, del := get(m, []byte(k), ikey.MaxSeq)
						want, set := model[k]
						switch {
						case set && (!found || del || string(v) != want),
							deleted[k] && (!found || !del),
							!set && !deleted[k] && found:
							return false
						}
					}
				}
				return true
			}
			if err := quick.Check(fn, &quick.Config{MaxCount: 50}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
