package kv

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"testing"
)

// FuzzMergeIterators: a merge of sorted children walks the sorted union of
// their pairs, equal keys in child order, from the first key and from any
// Seek target; with each child filtered to the keys it owns, it walks the
// owned subset.
//
// Each record of data is a child selector byte, a length byte and that many
// key bytes; a pair's value names its child and its place in the input.
func FuzzMergeIterators(f *testing.F) {
	f.Add([]byte("\x00\x02ab\x01\x02ab\x02\x01c\x00\x01a\x01\x00"), uint8(3), []byte("ab"))
	f.Add([]byte("\x00\x03key\x00\x03kez\x01\x03kex\x01\x03key"), uint8(2), []byte{})
	f.Fuzz(func(t *testing.T, data []byte, n uint8, target []byte) {
		k := int(n%6) + 1
		owner := func(key []byte) int {
			h := 0
			for _, b := range key {
				h = h*31 + int(b)
			}
			return h % k
		}
		var all []Pair // in child order, then input order: the tie order
		byChild := make([][]Pair, k)
		for i := 0; len(data) >= 2; i++ {
			c, l := int(data[0])%k, min(int(data[1]%5), len(data)-2)
			p := Pair{Key: data[2 : 2+l], Value: []byte(fmt.Sprintf("%d/%d", c, i))}
			byChild[c] = append(byChild[c], p)
			data = data[2+l:]
		}
		for _, ps := range byChild {
			sort.SliceStable(ps, func(i, j int) bool { return bytes.Compare(ps[i].Key, ps[j].Key) < 0 })
			all = append(all, ps...)
		}
		sort.SliceStable(all, func(i, j int) bool { return bytes.Compare(all[i].Key, all[j].Key) < 0 })
		var owned []Pair
		for _, p := range all {
			var c int
			fmt.Sscanf(string(p.Value), "%d/", &c)
			if owner(p.Key) == c {
				owned = append(owned, p)
			}
		}
		from := func(ps []Pair, target []byte) []Pair {
			i := sort.Search(len(ps), func(i int) bool { return bytes.Compare(ps[i].Key, target) >= 0 })
			return ps[i:]
		}
		merge := func(filtered bool) *Merge {
			children := make([]Iterator, k)
			for i, ps := range byChild {
				children[i] = NewSliceIter(ps)
				if filtered {
					children[i] = Filter(children[i], func(key []byte) bool { return owner(key) == i })
				}
			}
			return NewMerge(bytes.Compare, children)
		}
		for _, filtered := range []bool{false, true} {
			want := all
			if filtered {
				want = owned
			}
			m := merge(filtered)
			m.SeekToFirst()
			checkWalk(t, fmt.Sprintf("filtered=%v SeekToFirst", filtered), m, want)
			m.Seek(target)
			checkWalk(t, fmt.Sprintf("filtered=%v Seek(%q)", filtered, target), m, from(want, target))
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

func checkWalk(t *testing.T, what string, it Iterator, want []Pair) {
	t.Helper()
	for i, p := range want {
		if !it.Valid() {
			t.Fatalf("%s: ended after %d of %d pairs", what, i, len(want))
		}
		if !bytes.Equal(it.Key(), p.Key) || !bytes.Equal(it.Value(), p.Value) {
			t.Fatalf("%s: pair %d = %q=%q, want %q=%q", what, i, it.Key(), it.Value(), p.Key, p.Value)
		}
		it.Next()
	}
	if it.Valid() {
		t.Fatalf("%s: yields %q past the %d pairs wanted", what, it.Key(), len(want))
	}
	if err := it.Error(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// failing is a sorted slice that fails once a walk moves past its first
// pair, and fails its Close.
type failing struct {
	*SliceIter
	err error
}

func (f *failing) Next() {
	f.SliceIter.Next()
	if f.Valid() {
		f.err = errors.New("read failed")
	}
}

func (f *failing) Valid() bool  { return f.err == nil && f.SliceIter.Valid() }
func (f *failing) Error() error { return f.err }
func (f *failing) Close() error { return errors.New("close failed") }

// TestMergeLatchesFirstError: a child's error ends the walk and stays, a new
// Seek does not clear it, and Close closes every child and returns the first
// Close error.
func TestMergeLatchesFirstError(t *testing.T) {
	pairs := func(keys ...string) []Pair {
		var ps []Pair
		for _, k := range keys {
			ps = append(ps, Pair{Key: []byte(k)})
		}
		return ps
	}
	bad := &failing{SliceIter: NewSliceIter(pairs("b", "d"))}
	m := NewMerge(bytes.Compare, []Iterator{NewSliceIter(pairs("a", "c", "e")), bad})
	var got []string
	for m.SeekToFirst(); m.Valid(); m.Next() {
		got = append(got, string(m.Key()))
	}
	if fmt.Sprint(got) != "[a b]" || m.Error() == nil {
		t.Fatalf("walk = %v, err %v; want [a b] and the child's error", got, m.Error())
	}
	if m.Seek([]byte("a")); m.Valid() || m.Error() == nil {
		t.Fatalf("after a failure Seek gives valid %v, err %v; want the latched error", m.Valid(), m.Error())
	}
	if err := m.Close(); err == nil || err.Error() != "close failed" {
		t.Fatalf("Close = %v, want the failing child's", err)
	}
}
