// Package stats derives every view of a counter from its one declaration,
// a struct field tagged
//
//	json:"name"         its key in the JSON, /metrics and (behind the
//	                    caller's prefix) INFO
//	agg:"rule"          how Merge folds it into the aggregate
//	info:"Group[,key]"  the INFO group Pairs and Lines render it under;
//	                    key, when given, is the whole INFO key
//
// Embedded structs are flattened as encoding/json flattens them. The
// package reflects, so it stays off request paths: StatsSnapshot, INFO,
// /metrics and the end-of-run reports are its callers.
package stats

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
)

type field struct {
	index     []int
	key       string
	omitEmpty bool
	agg       string
	group     string
	infoKey   string
}

var plans sync.Map // reflect.Type -> []field

// plan flattens struct type t into its tagged fields, once per type.
func plan(t reflect.Type) []field {
	if p, ok := plans.Load(t); ok {
		return p.([]field)
	}
	var out []field
	for _, f := range reflect.VisibleFields(t) {
		key, opts, _ := strings.Cut(f.Tag.Get("json"), ",")
		if f.Anonymous && f.Type.Kind() == reflect.Struct || key == "-" || !f.IsExported() {
			continue
		}
		if key == "" {
			key = f.Name
		}
		group, infoKey, _ := strings.Cut(f.Tag.Get("info"), ",")
		out = append(out, field{f.Index, key, strings.Contains(opts, "omitempty"), f.Tag.Get("agg"), group, infoKey})
	}
	plans.Store(t, out)
	return out
}

// Merge folds src into *dst, two values of one struct type, by each field's
// agg rule: sum, max, or, last (a non-zero value overrides), worst (the
// worst-tagged fields move together, taken from the value whose first such
// field, an integer, is greatest) or - (left alone). A field with no rule,
// or a rule its type cannot carry, panics with its name. That depends on
// the type alone, so packages merge two zero values of each type they
// aggregate from init: a mis-tagged counter then stops every binary and
// test at start-up instead of an INFO request on a live server.
func Merge(dst, src any) {
	d, s := reflect.ValueOf(dst).Elem(), reflect.Indirect(reflect.ValueOf(src))
	var f field
	defer func() {
		if r := recover(); r != nil {
			panic(fmt.Sprintf("stats: %s field %q: agg rule %q: %v", d.Type(), f.key, f.agg, r))
		}
	}()
	var worstSeen, worse bool
	for _, f = range plan(d.Type()) {
		dv, sv := d.FieldByIndex(f.index), s.FieldByIndex(f.index)
		switch f.agg {
		case "sum":
			if dv.CanInt() {
				dv.SetInt(dv.Int() + sv.Int())
			} else {
				dv.SetUint(dv.Uint() + sv.Uint())
			}
		case "max":
			if less(dv, sv) {
				dv.Set(sv)
			}
		case "or":
			dv.SetBool(dv.Bool() || sv.Bool())
		case "last":
			if !sv.IsZero() {
				dv.Set(sv)
			}
		case "worst":
			if !worstSeen {
				worstSeen, worse = true, less(dv, sv)
			}
			if worse {
				dv.Set(sv)
			}
		case "-":
		default:
			panic("not one of sum, max, or, last, worst, -")
		}
	}
}

func less(a, b reflect.Value) bool {
	if a.CanInt() {
		return a.Int() < b.Int()
	}
	return a.Uint() < b.Uint()
}

// Pairs returns the fields of struct v in INFO group (the untagged ones for
// "") as key/value strings in declaration order. Keys are prefix+json name
// unless the info tag names one; values print as fmt prints them, on one
// line, with booleans as 0/1. Empty omitempty fields and nested documents
// are left out.
func Pairs(v any, prefix, group string) [][2]string {
	rv := reflect.Indirect(reflect.ValueOf(v))
	var out [][2]string
	for _, f := range plan(rv.Type()) {
		fv := rv.FieldByIndex(f.index)
		if f.group != group || f.omitEmpty && fv.IsZero() || fv.Kind() == reflect.Struct || fv.Kind() == reflect.Slice {
			continue
		}
		key, val := f.infoKey, fmt.Sprint(fv.Interface())
		if key == "" {
			key = prefix + f.key
		}
		if fv.Kind() == reflect.Bool {
			val = map[bool]string{false: "0", true: "1"}[fv.Bool()]
		}
		out = append(out, [2]string{key, strings.ReplaceAll(val, "\r\n", " ")})
	}
	return out
}

// Lines appends Pairs(v, prefix, group) to b as INFO "key:value\r\n" lines.
func Lines(b *strings.Builder, v any, prefix, group string) {
	for _, p := range Pairs(v, prefix, group) {
		b.WriteString(p[0] + ":" + p[1] + "\r\n")
	}
}
