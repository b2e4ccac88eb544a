package memtable

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"p2kvs/internal/ikey"
	"p2kvs/internal/raceflag"
)

func both() map[string]bool {
	return map[string]bool{"concurrent": true, "basic": false}
}

func TestAddGet(t *testing.T) {
	for name, conc := range both() {
		t.Run(name, func(t *testing.T) {
			m := New(conc)
			m.Add(1, ikey.KindSet, []byte("k1"), []byte("v1"))
			m.Add(2, ikey.KindSet, []byte("k2"), []byte("v2"))

			v, found, deleted := m.Get([]byte("k1"), ikey.MaxSeq)
			if !found || deleted || string(v) != "v1" {
				t.Fatalf("Get(k1) = %q %v %v", v, found, deleted)
			}
			if _, found, _ := m.Get([]byte("nope"), ikey.MaxSeq); found {
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
			m := New(conc)
			m.Add(1, ikey.KindSet, []byte("k"), []byte("old"))
			m.Add(5, ikey.KindSet, []byte("k"), []byte("new"))
			m.Add(9, ikey.KindDelete, []byte("k"), nil)

			// Latest: tombstone.
			_, found, deleted := m.Get([]byte("k"), ikey.MaxSeq)
			if !found || !deleted {
				t.Fatalf("latest = found=%v deleted=%v", found, deleted)
			}
			// Snapshot at 5: sees "new".
			v, found, deleted := m.Get([]byte("k"), 5)
			if !found || deleted || string(v) != "new" {
				t.Fatalf("snap5 = %q %v %v", v, found, deleted)
			}
			// Snapshot at 1: sees "old".
			v, found, deleted = m.Get([]byte("k"), 1)
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
			m := New(conc)
			m.Add(1, ikey.KindSet, []byte("k2"), []byte("x"))
			if _, found, _ := m.Get([]byte("k"), ikey.MaxSeq); found {
				t.Fatal("prefix matched wrong key")
			}
		})
	}
}

func TestIteratorOrderAndValues(t *testing.T) {
	for name, conc := range both() {
		t.Run(name, func(t *testing.T) {
			m := New(conc)
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
	m := New(true)
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
// rotation. With entries living only in the arena and towers sized by
// height, what a memtable actually holds when it rotates stays within a
// quarter of that estimate — for the benchmark's record shape (16-byte key,
// 128-byte value), on both skiplist flavours.
func TestReservedTracksApproximateSize(t *testing.T) {
	const budget = 16 << 20
	for name, concurrent := range both() {
		t.Run(name, func(t *testing.T) {
			m := New(concurrent)
			key, val := make([]byte, 16), make([]byte, 128)
			for seq := uint64(1); m.ApproximateSize() < budget; seq++ {
				binary.BigEndian.PutUint64(key[8:], seq*0x9E3779B97F4A7C15)
				m.Add(seq, ikey.KindSet, key, val)
			}
			approx, reserved := m.ApproximateSize(), m.ReservedBytes()
			t.Logf("%d entries: approximate %d, reserved %d (%.3fx)", m.Len(), approx, reserved, float64(reserved)/float64(approx))
			if float64(reserved) > 1.25*float64(approx) {
				t.Errorf("reserved %d bytes against an estimate of %d: more than 1.25x", reserved, approx)
			}
			if reserved < approx*3/4 {
				t.Errorf("reserved %d bytes against an estimate of %d: the accessor misses a slab", reserved, approx)
			}
		})
	}
}

// TestAddAllocs pins Add at its slab refills: one arena chunk per MiB of
// entries and a node and a tower chunk per few thousand — nothing per entry.
func TestAddAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation pins are not meaningful under the race detector")
	}
	for name, concurrent := range both() {
		m := New(concurrent)
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

func TestConcurrentAdds(t *testing.T) {
	m := New(true)
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
			if _, found, _ := m.Get([]byte(fmt.Sprintf("g%d-k%d", g, i)), ikey.MaxSeq); !found {
				t.Fatalf("lost key g%d-k%d", g, i)
			}
		}
	}
}

func TestQuickAgainstMap(t *testing.T) {
	// Property: after any op sequence, Get at MaxSeq agrees with a map.
	type op struct {
		Key    uint8 // small key space to force overwrites
		Value  uint16
		Delete bool
	}
	for name, conc := range both() {
		t.Run(name, func(t *testing.T) {
			fn := func(ops []op) bool {
				m := New(conc)
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
				for k, want := range model {
					v, found, del := m.Get([]byte(k), ikey.MaxSeq)
					if !found || del || string(v) != want {
						return false
					}
				}
				for k := range deleted {
					_, found, del := m.Get([]byte(k), ikey.MaxSeq)
					if !found || !del {
						return false
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
