package arena

import (
	"bytes"
	"sync"
	"testing"
)

func TestAllocBasic(t *testing.T) {
	a := New()
	b, _ := a.Alloc(16)
	if len(b) != 16 {
		t.Fatalf("len = %d", len(b))
	}
	for _, c := range b {
		if c != 0 {
			t.Fatal("allocation not zeroed")
		}
	}
	if a.Size() <= 0 {
		t.Fatal("size must reflect reserved chunks")
	}
}

func TestAllocationsDoNotOverlap(t *testing.T) {
	a := NewSlab[byte](64)
	x, _ := a.Alloc(10)
	y, _ := a.Alloc(10)
	copy(x, "xxxxxxxxxx")
	copy(y, "yyyyyyyyyy")
	if !bytes.Equal(x, []byte("xxxxxxxxxx")) {
		t.Fatal("allocation x was clobbered by y")
	}
}

func TestChunkRollover(t *testing.T) {
	a := NewSlab[byte](32)
	for i := 0; i < 10; i++ {
		b, _ := a.Alloc(20)
		if len(b) != 20 {
			t.Fatal("bad alloc")
		}
	}
	// 10 * 20 bytes with 32-byte chunks => 10 chunks.
	if a.Size() < 200 {
		t.Fatalf("size = %d, want >= 200", a.Size())
	}
}

func TestOversizedAllocation(t *testing.T) {
	a := NewSlab[byte](16)
	_, small := a.Alloc(4)
	b, ref := a.Alloc(100)
	if len(b) != 100 {
		t.Fatalf("len = %d", len(b))
	}
	// A chunk of its own; the current one keeps filling behind it.
	if _, next := a.Alloc(4); ref.Off != 0 || ref.Chunk == small.Chunk || next != (Ref{small.Chunk, 4, 4}) {
		t.Fatalf("small at %+v, oversized at %+v, the next small one at %+v", small, ref, next)
	}
}

// TestRefResolves: At gives back exactly what Alloc handed out, across chunk
// refills, for every allocation made so far.
func TestRefResolves(t *testing.T) {
	a := NewSlab[byte](64)
	var refs []Ref
	for i := 0; i < 50; i++ {
		b, ref := a.Alloc(1 + i%24)
		for j := range b {
			b[j] = byte(i)
		}
		refs = append(refs, ref)
		for k, r := range refs {
			got := a.At(r)
			if len(got) != 1+k%24 || cap(got) != len(got) || got[0] != byte(k) || got[len(got)-1] != byte(k) {
				t.Fatalf("after %d allocations At(%+v) = %v", i+1, r, got)
			}
		}
	}
}

func TestTypedSlab(t *testing.T) {
	type node struct {
		entry []byte
		next  *node
	}
	s := NewSlab[node](4)
	var prev *node
	for i := 0; i < 10; i++ {
		ns, _ := s.Alloc(1)
		if len(ns) != 1 || cap(ns) != 1 || ns[0].entry != nil || ns[0].next != nil {
			t.Fatalf("alloc %d: len %d cap %d %+v, want one zeroed node", i, len(ns), cap(ns), ns[0])
		}
		ns[0].next = prev
		prev = &ns[0]
	}
	for n, i := prev, 0; n != nil; n, i = n.next, i+1 {
		if i >= 10 {
			t.Fatal("a node was handed out twice")
		}
	}
	// 10 nodes from chunks of 4: three chunks of 4 nodes, 32 bytes each.
	if got := s.Size(); got != 3*4*32 {
		t.Fatalf("Size = %d, want %d", got, 3*4*32)
	}
}

func TestConcurrentAlloc(t *testing.T) {
	a := NewSlab[byte](1 << 10)
	var wg sync.WaitGroup
	results := make([][][]byte, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				b, ref := a.Alloc(8)
				b[0] = byte(g)
				b[7] = byte(i)
				results[g] = append(results[g], b)
				// Resolving races the others' chunk refills and table growth.
				if got := a.At(ref); &got[0] != &b[0] {
					t.Errorf("At(%+v) is not the allocation", ref)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g := range results {
		for i, b := range results[g] {
			if b[0] != byte(g) || b[7] != byte(i%256) {
				t.Fatalf("goroutine %d alloc %d clobbered: %v", g, i, b)
			}
		}
	}
}
