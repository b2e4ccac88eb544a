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
)

func lists() map[string]func() List {
	return map[string]func() List{
		"concurrent": func() List { return NewConcurrent(bytes.Compare) },
		"basic":      func() List { return NewBasic(bytes.Compare) },
	}
}

func TestInsertAndFind(t *testing.T) {
	for name, mk := range lists() {
		t.Run(name, func(t *testing.T) {
			l := mk()
			keys := []string{"banana", "apple", "cherry", "date"}
			for _, k := range keys {
				l.Insert([]byte(k))
			}
			if l.Len() != 4 {
				t.Fatalf("len = %d", l.Len())
			}
			if got := l.FindGreaterOrEqual([]byte("apple")); string(got) != "apple" {
				t.Fatalf("FindGE(apple) = %q", got)
			}
			if got := l.FindGreaterOrEqual([]byte("b")); string(got) != "banana" {
				t.Fatalf("FindGE(b) = %q", got)
			}
			if got := l.FindGreaterOrEqual([]byte("zzz")); got != nil {
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
					l.Insert([]byte(k))
				}
			}
			sort.Strings(want)

			it := l.Iterator()
			var got []string
			for it.SeekToFirst(); it.Valid(); it.Next() {
				got = append(got, string(it.Entry()))
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
				l.Insert([]byte(fmt.Sprintf("k%03d", i)))
			}
			it := l.Iterator()
			it.Seek([]byte("k051")) // odd: should land on k052
			if !it.Valid() || string(it.Entry()) != "k052" {
				t.Fatalf("Seek(k051) = %q", it.Entry())
			}
			it.Seek([]byte("k098"))
			if !it.Valid() || string(it.Entry()) != "k098" {
				t.Fatalf("Seek(k098) = %q", it.Entry())
			}
			it.Next()
			if it.Valid() {
				t.Fatalf("expected end, got %q", it.Entry())
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
			if l.FindGreaterOrEqual([]byte("x")) != nil {
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
					l.Insert([]byte(s))
				}
				sort.Strings(keys)

				it := l.Iterator()
				i := 0
				for it.SeekToFirst(); it.Valid(); it.Next() {
					if i >= len(keys) || string(it.Entry()) != keys[i] {
						return false
					}
					i++
				}
				if i != len(keys) {
					return false
				}

				idx := sort.SearchStrings(keys, probe)
				got := l.FindGreaterOrEqual([]byte(probe))
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

func TestConcurrentInserters(t *testing.T) {
	l := NewConcurrent(bytes.Compare)
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
				l.Insert([]byte(fmt.Sprintf("g%02d-%06d", g, i)))
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
		cur := string(it.Entry())
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
	l := NewConcurrent(bytes.Compare)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5000; i++ {
			l.Insert([]byte(fmt.Sprintf("w-%06d", i)))
		}
	}()
	// Readers run concurrently; they must never observe corruption
	// (panic/unsorted results).
	for i := 0; i < 1000; i++ {
		e := l.FindGreaterOrEqual([]byte("w-"))
		if e != nil && !bytes.HasPrefix(e, []byte("w-")) {
			t.Fatalf("corrupt entry %q", e)
		}
	}
	<-done
}

// TestInsertLinksCallersEntry is the Insert contract: the list stores the
// slice it was handed — no copy — and accounts only for its nodes and towers.
func TestInsertLinksCallersEntry(t *testing.T) {
	for name, mk := range lists() {
		t.Run(name, func(t *testing.T) {
			l := mk()
			if l.ReservedBytes() != 0 {
				t.Fatalf("an empty list reserves %d bytes", l.ReservedBytes())
			}
			ar := arena.New()
			entry := ar.Alloc(5)
			copy(entry, "owned")
			l.Insert(entry)
			got := l.FindGreaterOrEqual([]byte("owned"))
			if string(got) != "owned" || &got[0] != &entry[0] {
				t.Fatalf("FindGE = %q at %p, want the inserted slice at %p", got, &got[0], &entry[0])
			}
			if l.ReservedBytes() <= 0 {
				t.Fatal("ReservedBytes must count the node and tower slabs")
			}
		})
	}
}

// TestConcurrentInsertersAndReaders: inserters take entries from one shared
// arena and link them while readers iterate and seek. Under -race this
// checks the slab hand-out (nodes and towers cross several chunk refills)
// and the publication of a node's entry and tower through the linking CAS;
// readers must only ever see a sorted list of complete entries.
func TestConcurrentInsertersAndReaders(t *testing.T) {
	l := NewConcurrent(bytes.Compare)
	ar := arena.New()
	const (
		inserters = 4
		perG      = 3 * nodeChunk / inserters // three node chunks in all
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
					e := it.Entry()
					if len(e) != 10 || e[0] != 'g' || (prev != nil && bytes.Compare(prev, e) >= 0) {
						t.Errorf("reader saw %q after %q", e, prev)
						return
					}
					prev = e
				}
				if e := l.FindGreaterOrEqual([]byte("g01-")); e != nil && !bytes.HasPrefix(e, []byte("g0")) {
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
				e := ar.Alloc(10)
				copy(e, fmt.Sprintf("g%02d-%06d", g, i))
				l.Insert(e)
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if l.Len() != inserters*perG {
		t.Fatalf("len = %d, want %d", l.Len(), inserters*perG)
	}
	// A node of height h holds h tower slots; the slabs reserve whole chunks.
	if got, min := l.ReservedBytes(), int64(inserters*perG*(48+8)); got < min {
		t.Fatalf("ReservedBytes = %d, want at least %d", got, min)
	}
}
