package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A hand-built nest: two requests at concurrency 1, with a background
// SSTable write straddling the first.
//
//	0 client.get   [  0, 100]
//	1 engine.get   [ 10,  60]
//	2 vfs.read_at  [ 20,  30]
//	3 vfs.read_at  [ 35,  45]
//	4 engine.get   [ 70,  80]
//	5 vfs.write bg [  5, 200]
//	6 client.set   [110, 150]
//	7 engine.write [120, 140]
//	8 vfs.write    [125, 130]
//	9 vfs.write bg [126, 128]
func handBuiltSpans() []span {
	return []span{
		{kind: spClientGet, start: 0, end: 100, n: 1},
		{kind: spEngineGet, start: 10, end: 60, n: 1},
		{kind: spVfsReadAt, start: 20, end: 30, n: 4096},
		{kind: spVfsReadAt, start: 35, end: 45, n: 4096},
		{kind: spEngineGet, start: 70, end: 80, n: 1},
		{kind: spVfsWrite, bg: true, start: 5, end: 200, n: 1 << 20},
		{kind: spClientSet, start: 110, end: 150, n: 1},
		{kind: spEngineWrite, start: 120, end: 140, n: 1},
		{kind: spVfsWrite, start: 125, end: 130, n: 180},
		{kind: spVfsWrite, bg: true, start: 126, end: 128, n: 4096},
	}
}

func TestSpanSelfTimeAndParents(t *testing.T) {
	spans := handBuiltSpans()
	tree := nest(spans)
	wantParent := []int{-1, 0, 1, 1, 0, -1, -1, 6, 7, -1}
	wantRoot := []int{0, 0, 0, 0, 0, -1, 6, 6, 6, -1}
	wantSelf := []int64{40, 30, 10, 10, 10, 195, 20, 15, 5, 2}
	for i := range spans {
		if tree.parent[i] != wantParent[i] || tree.root[i] != wantRoot[i] || tree.self[i] != wantSelf[i] {
			t.Errorf("span %d (%s): parent %d root %d self %d, want %d %d %d", i, spanNames[spans[i].kind],
				tree.parent[i], tree.root[i], tree.self[i], wantParent[i], wantRoot[i], wantSelf[i])
		}
	}

	ops := waterfall(spans)
	want := []opCost{
		{kind: spClientGet, total: 100, engine: 60, fs: 20},
		{kind: spClientSet, total: 40, engine: 20, fs: 5},
	}
	if len(ops) != len(want) {
		t.Fatalf("%d requests, want %d", len(ops), len(want))
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Errorf("request %d: %+v, want %+v", i, ops[i], want[i])
		}
	}
}

func TestTracerTotalsSectionsAndJSONL(t *testing.T) {
	tr := newTracer(8)
	spans := handBuiltSpans()
	tr.record(sharedShard, spVfsSync, false, 0, 1, 2) // outside any section: totals only
	tr.section("core.get", true, 6, func() {
		for i, s := range spans[:6] {
			tr.record(i%traceShards, s.kind, s.bg, int(s.n), s.start, s.end)
		}
	})
	tr.section("load", false, 100, func() {
		for i, s := range spans[6:] { // four spans, room for two
			tr.record(i%traceShards, s.kind, s.bg, int(s.n), s.start, s.end)
		}
	})
	if got := tr.captured(); got != 8 {
		t.Fatalf("captured %d spans, want 8", got)
	}
	agg := tr.snapshot()
	if a := agg[spEngineGet]; a.calls != 2 || a.ns != 60 || a.items != 2 || a.weighted != 60 {
		t.Errorf("engine.get totals %+v", a)
	}
	if a := agg[spVfsWrite]; a.calls != 3 || a.items != 1<<20+180+4096 {
		t.Errorf("vfs.write totals %+v: spans past the buffer must still be counted", a)
	}
	if agg[spVfsSync].calls != 1 {
		t.Error("a span outside every section was not counted")
	}

	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := tr.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 8 {
		t.Fatalf("%d lines, want 8", len(lines))
	}
	type rec struct {
		Section string `json:"section"`
		ID      int    `json:"id"`
		Parent  *int   `json:"parent"`
		Req     *int   `json:"req"`
		Name    string `json:"name"`
	}
	var recs []rec
	for _, l := range lines {
		var r rec
		if err := json.Unmarshal([]byte(l), &r); err != nil {
			t.Fatalf("%q: %v", l, err)
		}
		recs = append(recs, r)
	}
	if r := recs[2]; r.Name != "vfs.read_at" || r.Parent == nil || *r.Parent != 1 || r.Req == nil || *r.Req != 0 {
		t.Errorf("nested span written as %+v", r)
	}
	if r := recs[5]; r.Parent != nil || r.Req != nil {
		t.Errorf("background span has a parent: %+v", r)
	}
	if r := recs[7]; r.Section != "load" || r.Parent != nil {
		t.Errorf("a span of the loaded window has a parent: %+v", r)
	}
}
