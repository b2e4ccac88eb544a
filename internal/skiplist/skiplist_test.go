package skiplist

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"p2kvs/internal/arena"
	"p2kvs/internal/ikey"
)

// keyList is a list of bare keys: every trailer 0.
type keyList struct {
	*List
	ar *arena.Arena
}

func newKeyList(mk func(*arena.Arena) *List) keyList {
	ar := arena.New()
	return keyList{mk(ar), ar}
}

// place writes key, with its zero trailer, where the list can link it.
func (l keyList) place(key string) arena.Ref {
	ik, ref := l.ar.Alloc(len(key) + ikey.TrailerLen)
	copy(ik, key)
	return ref
}

func (l keyList) insert(key string) { l.Insert(l.place(key)) }

// key returns the user key at ref.
func (l keyList) key(ref arena.Ref) []byte { return ikey.UserKey(l.ar.At(ref)) }

// find returns the first key at or after key, or nil.
func (l keyList) find(key string) []byte {
	if ref, ok := l.FindGreaterOrEqual([]byte(key), 0); ok {
		return l.key(ref)
	}
	return nil
}

func lists() map[string]func() keyList {
	return map[string]func() keyList{
		"concurrent": func() keyList { return newKeyList(NewConcurrent) },
		"basic":      func() keyList { return newKeyList(NewBasic) },
	}
}

func TestInsertAndFind(t *testing.T) {
	for name, mk := range lists() {
		t.Run(name, func(t *testing.T) {
			l := mk()
			keys := []string{"banana", "apple", "cherry", "date"}
			for _, k := range keys {
				l.insert(k)
			}
			if l.Len() != 4 {
				t.Fatalf("len = %d", l.Len())
			}
			if got := l.find("apple"); string(got) != "apple" {
				t.Fatalf("FindGE(apple) = %q", got)
			}
			if got := l.find("b"); string(got) != "banana" {
				t.Fatalf("FindGE(b) = %q", got)
			}
			if got := l.find("zzz"); got != nil {
				t.Fatalf("FindGE(zzz) = %q, want nil", got)
			}
		})
	}
}

func TestIteratorOrdered(t *testing.T) {
	for name, mk := range lists() {
		t.Run(name, func(t *testing.T) {
			l := mk()
			r := rand.New(rand.NewSource(7))
			want := make([]string, 0, 500)
			seen := map[string]bool{}
			for len(want) < 500 {
				k := fmt.Sprintf("key-%06d", r.Intn(1_000_000))
				if !seen[k] {
					seen[k] = true
					want = append(want, k)
					l.insert(k)
				}
			}
			sort.Strings(want)

			it := l.Iterator()
			var got []string
			for it.SeekToFirst(); it.Valid(); it.Next() {
				got = append(got, string(l.key(it.Key())))
			}
			if len(got) != len(want) {
				t.Fatalf("iterated %d entries, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("entry %d = %q, want %q", i, got[i], want[i])
				}
			}
		})
	}
}

func TestIteratorSeek(t *testing.T) {
	for name, mk := range lists() {
		t.Run(name, func(t *testing.T) {
			l := mk()
			for i := 0; i < 100; i += 2 {
				l.insert(fmt.Sprintf("k%03d", i))
			}
			it := l.Iterator()
			it.Seek([]byte("k051"), 0) // odd: should land on k052
			if !it.Valid() || string(l.key(it.Key())) != "k052" {
				t.Fatalf("Seek(k051) = %q", l.key(it.Key()))
			}
			it.Seek([]byte("k098"), 0)
			if !it.Valid() || string(l.key(it.Key())) != "k098" {
				t.Fatalf("Seek(k098) = %q", l.key(it.Key()))
			}
			it.Next()
			if it.Valid() {
				t.Fatalf("expected end, got %q", l.key(it.Key()))
			}
		})
	}
}

func TestEmptyList(t *testing.T) {
	for name, mk := range lists() {
		t.Run(name, func(t *testing.T) {
			l := mk()
			if l.Len() != 0 {
				t.Fatal("empty list has entries")
			}
			if l.find("x") != nil {
				t.Fatal("FindGE on empty list")
			}
			it := l.Iterator()
			it.SeekToFirst()
			if it.Valid() {
				t.Fatal("iterator valid on empty list")
			}
		})
	}
}

// TestQuickAgainstSortedSlice is a property test: inserting any set of
// unique strings yields exactly the sorted set under iteration, and
// FindGreaterOrEqual agrees with sort.SearchStrings.
func TestQuickAgainstSortedSlice(t *testing.T) {
	for name, mk := range lists() {
		t.Run(name, func(t *testing.T) {
			fn := func(raw []string, probe string) bool {
				uniq := map[string]bool{}
				for _, s := range raw {
					uniq[s] = true
				}
				var keys []string
				l := mk()
				for s := range uniq {
					keys = append(keys, s)
					l.insert(s)
				}
				sort.Strings(keys)

				it := l.Iterator()
				i := 0
				for it.SeekToFirst(); it.Valid(); it.Next() {
					if i >= len(keys) || string(l.key(it.Key())) != keys[i] {
						return false
					}
					i++
				}
				if i != len(keys) {
					return false
				}

				idx := sort.SearchStrings(keys, probe)
				got := l.find(probe)
				if idx == len(keys) {
					return got == nil
				}
				return string(got) == keys[idx]
			}
			if err := quick.Check(fn, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestEveryHeight links nodes of every height, the tallest first and last —
// a height-12 node is 19 words and raises the list to every level at once —
// among ordinary ones, then walks and probes the lot.
func TestEveryHeight(t *testing.T) {
	for name, mk := range lists() {
		t.Run(name, func(t *testing.T) {
			l := mk()
			var want []string
			add := func(key string, height int) {
				l.List.insert(l.place(key), height)
				want = append(want, key)
			}
			add("m-tallest-first", maxHeight)
			for i := 0; i < 400; i++ {
				add(fmt.Sprintf("k%05d", i*7919%1000), 1+i%maxHeight)
			}
			add("a-tallest-last", maxHeight)
			sort.Strings(want)
			it := l.Iterator()
			i := 0
			for it.SeekToFirst(); it.Valid(); it.Next() {
				if got := string(l.key(it.Key())); i >= len(want) || got != want[i] {
					t.Fatalf("entry %d = %q", i, got)
				}
				i++
			}
			if i != len(want) {
				t.Fatalf("iterated %d of %d", i, len(want))
			}
			for _, k := range want {
				if got := l.find(k); string(got) != k {
					t.Fatalf("find(%q) = %q", k, got)
				}
			}
		})
	}
}

func TestConcurrentInserters(t *testing.T) {
	l := newKeyList(NewConcurrent)
	const (
		goroutines = 8
		perG       = 1000
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				l.insert(fmt.Sprintf("g%02d-%06d", g, i))
			}
		}(g)
	}
	wg.Wait()
	if l.Len() != goroutines*perG {
		t.Fatalf("len = %d, want %d", l.Len(), goroutines*perG)
	}
	// Every inserted key must be findable and the iteration sorted.
	it := l.Iterator()
	prev := ""
	n := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		cur := string(l.key(it.Key()))
		if prev != "" && cur <= prev {
			t.Fatalf("out of order: %q after %q", cur, prev)
		}
		prev = cur
		n++
	}
	if n != goroutines*perG {
		t.Fatalf("iterated %d, want %d", n, goroutines*perG)
	}
}

func TestConcurrentReadDuringWrite(t *testing.T) {
	l := newKeyList(NewConcurrent)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5000; i++ {
			l.insert(fmt.Sprintf("w-%06d", i))
		}
	}()
	// Readers run concurrently; they must never observe corruption
	// (panic/unsorted results).
	for i := 0; i < 1000; i++ {
		e := l.find("w-")
		if e != nil && !bytes.HasPrefix(e, []byte("w-")) {
			t.Fatalf("corrupt entry %q", e)
		}
	}
	<-done
}

// TestInsertLinksCallersEntry is the Insert contract: the list stores the
// address it was handed — no copy — and accounts only for its nodes.
func TestInsertLinksCallersEntry(t *testing.T) {
	for name, mk := range lists() {
		t.Run(name, func(t *testing.T) {
			l := mk()
			empty := l.ReservedBytes() // the head's chunk
			ref := l.place("owned")
			entry := l.ar.At(ref)
			l.Insert(ref)
			got := l.find("owned")
			if string(got) != "owned" || &got[0] != &entry[0] {
				t.Fatalf("FindGE = %q at %p, want the inserted slice at %p", got, &got[0], &entry[0])
			}
			if empty <= 0 || l.ReservedBytes() != empty {
				t.Fatalf("ReservedBytes %d empty, %d with one entry: must count the node slab and nothing else", empty, l.ReservedBytes())
			}
		})
	}
}

// TestConcurrentInsertersAndReaders: inserters take entries from one shared
// arena and link them while readers iterate and seek. Under -race this
// checks the slab hand-out (nodes cross several chunk refills, so links
// cross chunks and readers meet chunks newer than their last look at the
// chunk table) and the publication of a node's words through the linking CAS;
// readers must only ever see a sorted list of complete entries.
func TestConcurrentInsertersAndReaders(t *testing.T) {
	l := newKeyList(NewConcurrent)
	const (
		inserters = 4
		perG      = 3 << nodeShift / 8 / inserters // at least three node chunks in all
	)
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			it := l.Iterator()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var prev []byte
				for it.SeekToFirst(); it.Valid(); it.Next() {
					e := l.key(it.Key())
					if len(e) != 10 || e[0] != 'g' || (prev != nil && bytes.Compare(prev, e) >= 0) {
						t.Errorf("reader saw %q after %q", e, prev)
						return
					}
					prev = e
				}
				if e := l.find("g01-"); e != nil && !bytes.HasPrefix(e, []byte("g0")) {
					t.Errorf("FindGE(g01-) = %q", e)
					return
				}
			}
		}()
	}
	for g := 0; g < inserters; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < perG; i++ {
				l.insert(fmt.Sprintf("g%02d-%06d", g, i))
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if l.Len() != inserters*perG {
		t.Fatalf("len = %d, want %d", l.Len(), inserters*perG)
	}
	// A node of height h is 7+h words; the slab reserves whole chunks.
	if got, min := l.ReservedBytes(), int64(inserters*perG*4*(wLinks+1)); got < min {
		t.Fatalf("ReservedBytes = %d, want at least %d", got, min)
	}
}
