package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"sync/atomic"
)

// The tracer lives entirely in the benchmark and sits at the program's
// public seams: the load generator (client.*), the kv.Engine decorator
// (engine.*) and the vfs.FS decorator (vfs.*). Spans inside the program
// are a later change.

type spanKind uint8

const (
	spClientGet spanKind = iota
	spClientSet
	spEngineGet
	spEngineMultiGet
	spEngineWrite
	spVfsReadAt
	spVfsWrite
	spVfsSync
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"client.get", "client.set",
	"engine.get", "engine.multiget", "engine.write",
	"vfs.read_at", "vfs.write", "vfs.sync",
}

func (k spanKind) isClient() bool { return k <= spClientSet }
func (k spanKind) isEngine() bool { return k >= spEngineGet && k <= spEngineWrite }
func (k spanKind) isVfs() bool    { return k >= spVfsReadAt }

// span is one timed call. n is the batch size (engine spans) or byte count
// (vfs spans); bg marks vfs spans on files only background jobs write.
type span struct {
	kind       spanKind
	bg         bool
	n          int32
	start, end int64 // nowNs readings
}

// traceShards is the number of counter sets: one per worker instance, so
// that workers do not bounce one cache line between cores, and one more
// for everything else (the clients, the transaction log).
const (
	traceShards = numWorkers + 1
	sharedShard = numWorkers
)

// spanAgg accumulates every span of one kind in one shard, captured or not.
type spanAgg struct {
	calls atomic.Int64
	ns    atomic.Int64
	items atomic.Int64
	// weighted is the sum of duration x n over engine spans: the time the
	// n requests of a batch jointly spent waiting for the call.
	weighted atomic.Int64
}

// tracer keeps spans in memory until the run ends. While capture is on,
// individual spans are stored (up to the preallocated capacity); totals
// per kind are always accumulated.
type tracer struct {
	capture atomic.Bool
	next    atomic.Int64
	stopAt  int64 // capture ends at this index; set while capture is off
	spans   []span
	agg     [traceShards][numSpanKinds]spanAgg
	// sections are the index ranges of the captured phases, in order.
	sections []traceSection
}

type traceSection struct {
	name   string
	lo, hi int
	// nested reports that the phase ran at concurrency 1, so a span's
	// parent is the span enclosing it in time.
	nested bool
}

func newTracer(capacity int) *tracer {
	return &tracer{spans: make([]span, capacity)}
}

func (t *tracer) record(shard int, kind spanKind, bg bool, n int, start, end int64) {
	a := &t.agg[shard][kind]
	a.calls.Add(1)
	a.ns.Add(end - start)
	a.items.Add(int64(n))
	if kind.isEngine() {
		a.weighted.Add((end - start) * int64(n))
	}
	if t.capture.Load() {
		if i := t.next.Add(1) - 1; i < t.stopAt {
			t.spans[i] = span{kind: kind, bg: bg, n: int32(n), start: start, end: end}
		} else {
			t.capture.Store(false) // spare the loaded window the shared counter
		}
	}
}

// section captures the first limit spans recorded while fn runs, fewer if
// the buffer fills up. Every request fn issues has completed when it
// returns.
func (t *tracer) section(name string, nested bool, limit int, fn func()) {
	lo := t.captured()
	t.stopAt = int64(min(lo+limit, len(t.spans)))
	t.next.Store(int64(lo))
	t.capture.Store(true)
	fn()
	t.capture.Store(false)
	hi := int(min(t.next.Load(), t.stopAt))
	t.sections = append(t.sections, traceSection{name: name, lo: lo, hi: hi, nested: nested})
}

// captured is the number of stored spans.
func (t *tracer) captured() int {
	if len(t.sections) == 0 {
		return 0
	}
	return t.sections[len(t.sections)-1].hi
}

// aggSnapshot is a plain copy of the per-kind totals.
type aggSnapshot [numSpanKinds]struct{ calls, ns, items, weighted int64 }

func (t *tracer) snapshot() aggSnapshot {
	var s aggSnapshot
	for i := range t.agg {
		for k := range t.agg[i] {
			s[k].calls += t.agg[i][k].calls.Load()
			s[k].ns += t.agg[i][k].ns.Load()
			s[k].items += t.agg[i][k].items.Load()
			s[k].weighted += t.agg[i][k].weighted.Load()
		}
	}
	return s
}

func (a aggSnapshot) sub(b aggSnapshot) aggSnapshot {
	for k := range a {
		a[k].calls -= b[k].calls
		a[k].ns -= b[k].ns
		a[k].items -= b[k].items
		a[k].weighted -= b[k].weighted
	}
	return a
}

// nesting is the span tree of a phase that ran at concurrency 1.
type nesting struct {
	// parent is the innermost span enclosing each span in time, -1 for none.
	parent []int
	// self is each span's duration minus the part its children cover.
	self []int64
	// root is the client span each span belongs to (a client span is its
	// own root), -1 for work outside any request, such as a background
	// flush. Spans of one request share it as their identifier.
	root []int
}

// nest derives the span tree. Indices refer to the slice passed in. Only
// client and engine spans can be parents; spans on files that only
// background jobs write belong to no request, whenever they ran.
func nest(spans []span) nesting {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := spans[order[a]], spans[order[b]]
		if sa.start != sb.start {
			return sa.start < sb.start
		}
		return sa.end > sb.end // the enclosing span first
	})
	t := nesting{
		parent: make([]int, len(spans)),
		self:   make([]int64, len(spans)),
		root:   make([]int, len(spans)),
	}
	var open []int // possible parents that have not ended yet, in start order
	for _, i := range order {
		s := spans[i]
		t.self[i] = s.end - s.start
		t.parent[i], t.root[i] = -1, -1
		if s.bg {
			continue
		}
		live := open[:0]
		for _, j := range open {
			if spans[j].end >= s.start {
				live = append(live, j)
			}
		}
		open = live
		// The parent is the innermost open span that fully encloses s.
		for k := len(open) - 1; k >= 0; k-- {
			if p := open[k]; spans[p].end >= s.end {
				t.parent[i], t.root[i] = p, t.root[p]
				t.self[p] -= s.end - s.start
				break
			}
		}
		if s.kind.isClient() {
			t.root[i] = i
		}
		if !s.kind.isVfs() {
			open = append(open, i)
		}
	}
	return t
}

// opCost is the waterfall of one request: the client span's duration and
// the time spent inside the engine spans it encloses and the vfs spans
// those enclose.
type opCost struct {
	kind              spanKind
	total, engine, fs int64
}

// waterfall folds a nested section into one opCost per client span.
func waterfall(spans []span) []opCost {
	t := nest(spans)
	slot := make([]int, len(spans)) // client span index -> its opCost
	var ops []opCost
	for i, s := range spans {
		if s.kind.isClient() {
			slot[i] = len(ops)
			ops = append(ops, opCost{kind: s.kind, total: s.end - s.start})
		}
	}
	for i, s := range spans {
		p := t.parent[i]
		if p < 0 || t.root[i] < 0 {
			continue
		}
		op := &ops[slot[t.root[i]]]
		switch {
		case s.kind.isEngine() && spans[p].kind.isClient():
			op.engine += s.end - s.start
		case s.kind.isVfs() && spans[p].kind.isEngine():
			op.fs += s.end - s.start
		}
	}
	return ops
}

// appendRef appends the global id of span i's parent or root, or null when
// the section did not nest or the span has none.
func appendRef(line []byte, sec traceSection, ref []int, i int) []byte {
	if !sec.nested || ref[i] < 0 {
		return append(line, "null"...)
	}
	return strconv.AppendInt(line, int64(sec.lo+ref[i]), 10)
}

// writeJSONL writes every captured span, one JSON object per line, with
// the parent and request derived for nested sections.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	for _, sec := range t.sections {
		spans := t.spans[sec.lo:sec.hi]
		var tree nesting
		if sec.nested {
			tree = nest(spans)
		}
		for i, s := range spans {
			line = append(line[:0], `{"section":"`...)
			line = append(line, sec.name...)
			line = append(line, `","id":`...)
			line = strconv.AppendInt(line, int64(sec.lo+i), 10)
			line = append(line, `,"parent":`...)
			line = appendRef(line, sec, tree.parent, i)
			line = append(line, `,"req":`...)
			line = appendRef(line, sec, tree.root, i)
			line = append(line, `,"name":"`...)
			line = append(line, spanNames[s.kind]...)
			line = append(line, `","start_ns":`...)
			line = strconv.AppendInt(line, s.start, 10)
			line = append(line, `,"end_ns":`...)
			line = strconv.AppendInt(line, s.end, 10)
			line = append(line, `,"n":`...)
			line = strconv.AppendInt(line, int64(s.n), 10)
			if s.kind.isVfs() {
				line = append(line, `,"background":`...)
				line = strconv.AppendBool(line, s.bg)
			}
			line = append(line, "}\n"...)
			if _, err := w.Write(line); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
