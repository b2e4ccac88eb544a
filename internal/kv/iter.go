package kv

import (
	"bytes"
	"sort"
)

// Pair is one key and its value.
type Pair struct {
	Key   []byte
	Value []byte
}

// SliceIter is an Iterator over pairs held in memory, sorted by key in byte
// order. It seeks by binary search.
type SliceIter struct {
	pairs []Pair
	pos   int
}

// NewSliceIter returns an unpositioned iterator over pairs, which must be
// sorted by key and stay unchanged while the iterator is in use.
func NewSliceIter(pairs []Pair) *SliceIter { return &SliceIter{pairs: pairs, pos: len(pairs)} }

// Valid implements Iterator.
func (it *SliceIter) Valid() bool { return it.pos < len(it.pairs) }

// SeekToFirst implements Iterator.
func (it *SliceIter) SeekToFirst() { it.pos = 0 }

// Seek implements Iterator.
func (it *SliceIter) Seek(target []byte) {
	it.pos = sort.Search(len(it.pairs), func(i int) bool { return bytes.Compare(it.pairs[i].Key, target) >= 0 })
}

// Next implements Iterator.
func (it *SliceIter) Next() {
	if it.pos < len(it.pairs) {
		it.pos++
	}
}

// Key implements Iterator.
func (it *SliceIter) Key() []byte { return it.pairs[it.pos].Key }

// Value implements Iterator.
func (it *SliceIter) Value() []byte { return it.pairs[it.pos].Value }

// Error implements Iterator; a slice has nothing to fail.
func (it *SliceIter) Error() error { return nil }

// Close implements Iterator.
func (it *SliceIter) Close() error { return nil }

// Merge is a k-way merge of iterators: it yields every entry of every
// child, ordered by cmp on the keys, and entries whose keys compare equal
// in child order. The first error a child reports ends the walk and stays
// in Error.
type Merge struct {
	cmp      func(a, b []byte) int
	children []Iterator
	heap     []mergeHead // the valid children, a min-heap by (key, child)
	err      error
}

// mergeHead is a valid child and its current key, which stays valid until
// that child moves.
type mergeHead struct {
	key   []byte
	child int
}

// NewMerge returns an unpositioned merge of children by cmp. Closing the
// merge closes the children.
func NewMerge(cmp func(a, b []byte) int, children []Iterator) *Merge {
	return &Merge{cmp: cmp, children: children, heap: make([]mergeHead, 0, len(children))}
}

// SeekToFirst implements Iterator.
func (m *Merge) SeekToFirst() {
	for _, c := range m.children {
		c.SeekToFirst()
	}
	m.build()
}

// Seek implements Iterator.
func (m *Merge) Seek(target []byte) {
	for _, c := range m.children {
		c.Seek(target)
	}
	m.build()
}

func (m *Merge) build() {
	m.heap = m.heap[:0]
	for i, c := range m.children {
		if err := c.Error(); err != nil && m.err == nil {
			m.err = err
		}
		if c.Valid() {
			m.heap = append(m.heap, mergeHead{c.Key(), i})
		}
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.down(i)
	}
}

// Next implements Iterator.
func (m *Merge) Next() {
	if !m.Valid() {
		return
	}
	top := &m.heap[0]
	c := m.children[top.child]
	c.Next()
	if err := c.Error(); err != nil {
		m.err = err
		return
	}
	if c.Valid() {
		top.key = c.Key()
	} else {
		last := len(m.heap) - 1
		m.heap[0] = m.heap[last]
		m.heap = m.heap[:last]
	}
	m.down(0)
}

// down sifts heap entry i down to its place. The heap is a typed slice
// sifted by hand: container/heap would box an entry per Push and Pop.
func (m *Merge) down(i int) {
	h := m.heap
	for {
		least, l := i, 2*i+1
		if l < len(h) && m.less(h[l], h[least]) {
			least = l
		}
		if r := l + 1; r < len(h) && m.less(h[r], h[least]) {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

func (m *Merge) less(a, b mergeHead) bool {
	c := m.cmp(a.key, b.key)
	return c < 0 || c == 0 && a.child < b.child
}

// Valid implements Iterator.
func (m *Merge) Valid() bool { return m.err == nil && len(m.heap) > 0 }

// Key implements Iterator.
func (m *Merge) Key() []byte { return m.heap[0].key }

// Value implements Iterator.
func (m *Merge) Value() []byte { return m.children[m.heap[0].child].Value() }

// Error implements Iterator.
func (m *Merge) Error() error { return m.err }

// Close implements Iterator: it closes every child and returns the first
// error a Close returned.
func (m *Merge) Close() error {
	var first error
	for _, c := range m.children {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Filter returns it restricted to the keys keep accepts: a skipped key is
// never yielded, and Seek and Next move on past it.
func Filter(it Iterator, keep func(key []byte) bool) Iterator {
	return &filter{Iterator: it, keep: keep}
}

type filter struct {
	Iterator
	keep func(key []byte) bool
}

func (f *filter) skip() {
	for f.Iterator.Valid() && !f.keep(f.Iterator.Key()) {
		f.Iterator.Next()
	}
}

func (f *filter) SeekToFirst() { f.Iterator.SeekToFirst(); f.skip() }

func (f *filter) Seek(target []byte) { f.Iterator.Seek(target); f.skip() }

func (f *filter) Next() { f.Iterator.Next(); f.skip() }
