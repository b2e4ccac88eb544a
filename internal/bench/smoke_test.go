package bench

import (
	"strings"
	"sync"
	"testing"
)

// TestSmokeAllExperiments runs every registered experiment in Quick mode:
// each must complete without error and produce at least one data row.
// The experiments mostly sleep on their simulated devices, so all of
// them run at once (t.Parallel would cap that at GOMAXPROCS); numbers
// measured this way mean nothing, only completion and shape are checked.
// (Full-budget runs: dbbench -experiment.)
func TestSmokeAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke experiments are seconds-long each; skipped in -short")
	}
	type result struct {
		tbl *Table
		err error
		out strings.Builder
	}
	results := make(map[string]*result)
	var wg sync.WaitGroup
	for _, name := range Names() {
		r := &result{}
		results[name] = r
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.tbl, r.err = Run(name, Env{Quick: true, Out: &r.out})
		}()
	}
	wg.Wait()
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			r := results[name]
			if r.err != nil {
				t.Fatalf("%s failed: %v", name, r.err)
			}
			if r.tbl == nil || len(r.tbl.Rows) == 0 {
				t.Fatalf("%s produced no rows", name)
			}
			if !strings.Contains(r.out.String(), r.tbl.Title) {
				t.Fatalf("%s did not print its table", name)
			}
		})
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("bogus", Env{Quick: true}); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestMeasureRespectsBudget(t *testing.T) {
	e := Env{Quick: true}.WithDefaults()
	res, err := e.measure(2, 10, func(tid, i int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops <= 0 || res.SimQPS <= 0 {
		t.Fatalf("res = %+v", res)
	}
	if res.Ops > int64(e.MaxOps) {
		t.Fatalf("ops %d exceeded MaxOps %d", res.Ops, e.MaxOps)
	}
}

func TestTableFormatting(t *testing.T) {
	tbl := NewTable("t", "a", "b")
	tbl.Add("x", 1234567.0)
	tbl.Add("y", 0.5)
	var sb strings.Builder
	tbl.Print(&sb)
	out := sb.String()
	if !strings.Contains(out, "1.23M") || !strings.Contains(out, "0.500") {
		t.Fatalf("formatting: %q", out)
	}
}
