package core

import (
	"encoding"
	"flag"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"p2kvs/internal/kv"
	"p2kvs/internal/vfs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden schema files")

var (
	errorType = reflect.TypeOf((*error)(nil)).Elem()
	textType  = reflect.TypeOf((*encoding.TextMarshaler)(nil)).Elem()
)

// statsSchema flattens a struct type into "path kind" lines the way
// encoding/json sees it: one per leaf field, embedded structs flattened,
// nested structs and slices descended into, errors and text marshalers
// strings as they are on the wire. The result is the externally visible
// stats schema: INFO, /metrics and any scraper built on the JSON depend
// on these names.
func statsSchema(t reflect.Type, prefix string, out *[]string) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag := strings.Split(f.Tag.Get("json"), ",")[0]
		if f.Anonymous && tag == "" {
			statsSchema(f.Type, prefix, out)
			continue
		}
		if tag == "" {
			tag = f.Name
		}
		path := prefix + tag
		ft := f.Type
		if ft.Kind() == reflect.Slice {
			ft = ft.Elem()
			path += "[]"
		}
		switch {
		case ft.Implements(errorType), ft.Implements(textType):
			*out = append(*out, path+" string")
		case ft.Kind() == reflect.Struct:
			statsSchema(ft, path+".", out)
		default:
			*out = append(*out, fmt.Sprintf("%s %s", path, ft.Kind()))
		}
	}
}

// TestStatsSchemaGolden locks the JSON stats schema against the checked-in
// golden file. Renaming, retyping or dropping a field fails this test —
// external dashboards parse these names, so a change must be deliberate:
//
//	go test ./internal/core -run TestStatsSchemaGolden -update
func TestStatsSchemaGolden(t *testing.T) {
	var lines []string
	statsSchema(reflect.TypeOf(StatsSnapshot{}), "", &lines)
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"

	const golden = "testdata/stats_schema.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("stats JSON schema changed.\n--- golden\n+++ current\n%s\n"+
			"If the change is intentional, rerun with -update and flag it in the PR: "+
			"INFO and /metrics consumers parse these field names.", schemaDiff(string(want), got))
	}
}

// schemaDiff renders a minimal line diff (goldens are small).
func schemaDiff(want, got string) string {
	wl := strings.Split(strings.TrimRight(want, "\n"), "\n")
	gl := strings.Split(strings.TrimRight(got, "\n"), "\n")
	ws, gs := map[string]bool{}, map[string]bool{}
	for _, l := range wl {
		ws[l] = true
	}
	for _, l := range gl {
		gs[l] = true
	}
	var b strings.Builder
	for _, l := range wl {
		if !gs[l] {
			fmt.Fprintf(&b, "-%s\n", l)
		}
	}
	for _, l := range gl {
		if !ws[l] {
			fmt.Fprintf(&b, "+%s\n", l)
		}
	}
	return b.String()
}

// TestStatsSnapshotPopulatesSchema sanity-checks that a live snapshot
// round-trips through the schema: every per-worker entry carries a valid
// ID and health string, and the aggregate sums match the per-worker rows
// for the additive counters.
func TestStatsSnapshotPopulatesSchema(t *testing.T) {
	fs := vfs.NewMem()
	s := openStore(t, fs, 3)
	defer s.Close()
	for i := 0; i < 50; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.StatsSnapshot()
	if snap.Workers != 3 || len(snap.PerWorker) != 3 {
		t.Fatalf("snapshot shape: %+v", snap)
	}
	var ops, direct int64
	for i, w := range snap.PerWorker {
		if w.ID != i {
			t.Fatalf("per-worker ID %d at index %d", w.ID, i)
		}
		if w.State != kv.StateHealthy {
			t.Fatalf("worker %d health = %v", i, w.State)
		}
		ops += w.Ops
		direct += w.DirectWrites
	}
	// Each Put ran on its worker (ops) or, on an idle one, on its caller.
	if snap.Aggregate.Ops != ops || snap.Aggregate.DirectWrites != direct || ops+direct < 50 {
		t.Fatalf("aggregate ops %d / direct_writes %d != per-worker sums %d / %d (together >= 50)", snap.Aggregate.Ops, snap.Aggregate.DirectWrites, ops, direct)
	}
}
