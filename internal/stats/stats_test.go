package stats_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"p2kvs/internal/core"
	"p2kvs/internal/kv"
	"p2kvs/internal/stats"
)

// numericLeaves walks t the way encoding/json flattens it and calls fn for
// every integer field — independently of the package's own plan.
func numericLeaves(t reflect.Type, index []int, fn func(f reflect.StructField, index []int)) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		idx := append(index[:len(index):len(index)], i)
		switch {
		case f.Anonymous && f.Type.Kind() == reflect.Struct:
			numericLeaves(f.Type, idx, fn)
		case reflect.Zero(f.Type).CanInt(), reflect.Zero(f.Type).CanUint():
			fn(f, idx)
		}
	}
}

// TestMergeWorkerStatsByTag builds three workers whose i-th numeric field
// holds worker*1000+i, merges them, and checks every field against its
// agg rule. A numeric field without a rule fails here, so a new counter
// cannot silently drop out of the aggregate.
func TestMergeWorkerStatsByTag(t *testing.T) {
	typ := reflect.TypeOf(core.WorkerStats{})
	set := func(v reflect.Value, n int64) {
		if v.CanInt() {
			v.SetInt(n)
		} else {
			v.SetUint(uint64(n))
		}
	}
	get := func(v reflect.Value) int64 {
		if v.CanInt() {
			return v.Int()
		}
		return int64(v.Uint())
	}

	agg := core.WorkerStats{ID: -1}
	for w := int64(1); w <= 3; w++ {
		var ws core.WorkerStats
		i := int64(0)
		numericLeaves(typ, nil, func(f reflect.StructField, index []int) {
			// Health states are a small enum: keep worker 2 the worst.
			if f.Type == reflect.TypeOf(kv.StateHealthy) {
				set(reflect.ValueOf(&ws).Elem().FieldByIndex(index), w%3)
				return
			}
			i++
			set(reflect.ValueOf(&ws).Elem().FieldByIndex(index), w*1000+i)
		})
		ws.Err = kv.CauseOf(errors.New(strings.Repeat("e", int(w))))
		ws.DiskFull = w == 2
		if w == 1 {
			ws.LastCorruption = kv.CauseOf(errors.New("rot"))
		}
		stats.Merge(&agg, ws)
	}

	i := int64(0)
	numericLeaves(typ, nil, func(f reflect.StructField, index []int) {
		got := get(reflect.ValueOf(agg).FieldByIndex(index))
		rule := f.Tag.Get("agg")
		if rule == "worst" {
			if got != 2 {
				t.Errorf("%s: worst = %d, want the greatest state 2", f.Name, got)
			}
			return
		}
		i++
		want, ok := map[string]int64{"sum": 6000 + 3*i, "max": 3000 + i, "-": -1}[rule]
		if !ok {
			t.Errorf("%s: numeric stats field has no usable agg rule (%q)", f.Name, rule)
		} else if got != want {
			t.Errorf("%s (agg:%q) = %d, want %d", f.Name, rule, got, want)
		}
	})
	if agg.Err == nil || agg.Err.Error() != "ee" {
		t.Errorf("worst: Err = %v, want worker 2's, moved with its state", agg.Err)
	}
	if !agg.DiskFull {
		t.Error("or: DiskFull lost")
	}
	if agg.LastCorruption == nil || agg.LastCorruption.Error() != "rot" {
		t.Errorf("last: LastCorruption = %v, want the one non-nil report", agg.LastCorruption)
	}
}

// TestMergeDryRun: merging two zero values, what packages do from init,
// panics naming the field for a missing rule, a rule the field's type
// cannot carry, and a worst group that does not lead with the integer it
// is ranked by; the types the repo merges pass.
func TestMergeDryRun(t *testing.T) {
	bad := map[string]any{
		"no rule": struct {
			N int64 `json:"n"`
		}{},
		"sum of a bool": struct {
			N bool `json:"n" agg:"sum"`
		}{},
		"or of an int": struct {
			N int `json:"n" agg:"or"`
		}{},
		"worst led by error": struct {
			N     error `json:"n" agg:"worst"`
			State int   `agg:"worst"`
		}{},
	}
	for name, v := range bad {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(r.(string), `field "n"`) {
					t.Errorf("%s: recovered %v, want a panic naming the field", name, r)
				}
			}()
			stats.Merge(reflect.New(reflect.TypeOf(v)).Interface(), v)
		}()
	}
	stats.Merge(&core.WorkerStats{}, core.WorkerStats{})
	stats.Merge(&kv.ScrubResult{}, kv.ScrubResult{})
}

type inner struct {
	Hits int64 `json:"hits" info:"A"`
}

type doc struct {
	inner
	On     bool           `json:"on" info:"A"`
	Odd    uint64         `json:"odd" info:"A,irregular_key"`
	Why    error          `json:"why,omitempty" info:"A"`
	Note   string         `json:"note,omitempty" info:"A"`
	Hidden int            `json:"-" info:"A"`
	Other  int            `json:"other" info:"B"`
	Plain  int            `json:"plain"`
	State  kv.HealthState `json:"state" info:"A"`
	Sub    []inner        `json:"sub" info:"A"`
}

func TestLinesAndPairs(t *testing.T) {
	d := doc{inner: inner{Hits: 7}, On: true, Odd: 9, Why: errors.New("disk\r\ngone"), Other: 1, Plain: 2, State: kv.StateRetrying}
	var b strings.Builder
	stats.Lines(&b, d, "p_", "A")
	if want := "p_hits:7\r\np_on:1\r\nirregular_key:9\r\np_why:disk gone\r\np_state:retrying\r\n"; b.String() != want {
		t.Errorf("Lines group A = %q, want %q", b.String(), want)
	}
	if got := stats.Pairs(&d, "", ""); len(got) != 1 || got[0] != [2]string{"plain", "2"} {
		t.Errorf("untagged group = %v, want only plain", got)
	}
}
