package p2kvs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"p2kvs/internal/btreekv"
	"p2kvs/internal/kvell"
	"p2kvs/internal/lsm"
)

// The option census: a knob earns its place by having two values in use
// outside tests. Every field of Options must be settable from the shared
// command-line flag set (loadgen.StoreFlags — the four binaries) or carry
// a reason here; every field of the engines' Options (lsm, btreekv, kvell)
// must be assigned by some non-test source file (a preset, the facade, an
// internal/bench experiment), and not set to one and the same literal by all
// of them, or carry a reason here. A field that fails is a constant in
// disguise: delete it, or — if it has a real second value — wire it up.

// notFlags: Options fields no flag sets, and why they stay.
var notFlags = map[string]string{
	"BlockCacheSize":    "memory sizing for embedders; dbbench's experiments size the cache per figure at the lsm layer",
	"SimulateHostCosts": "the simulated-time cost model (DESIGN 'Time and cost model'); examples/ycsb-demo sets it",
}

// testShaped: engine Options fields only tests assign, and why they stay.
var testShaped = map[string]string{
	"lsm.MaxImmutables":       "tests bound the flush queue to force write stalls",
	"lsm.L0CompactionTrigger": "tests tighten it to keep several compactions in flight (torture lsm-parallel)",
	"lsm.L0StallTrigger":      "same: the stall and slowdown bands are placed relative to it",
	"lsm.BgMaxRetries":        "tests shorten the retry schedule so a persistent fault degrades in milliseconds",
	"lsm.BgBaseBackoff":       "same",
	"lsm.BgMaxBackoff":        "same",
}

// engineOptions are the Options types the census walks, by package name.
var engineOptions = map[string]reflect.Type{
	"lsm":     reflect.TypeOf(lsm.Options{}),
	"btreekv": reflect.TypeOf(btreekv.Options{}),
	"kvell":   reflect.TypeOf(kvell.Options{}),
}

func TestOptionsCensus(t *testing.T) {
	flagged := assignedFields(t, []string{"internal/loadgen/flags.go"})
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Options{})) {
		_, excused := notFlags[f.Name]
		switch {
		case flagged[f.Name] && excused:
			t.Errorf("Options.%s is set by StoreFlags and also excused in notFlags: drop the excuse", f.Name)
		case !flagged[f.Name] && !excused:
			t.Errorf("Options.%s is set by no flag of loadgen.StoreFlags and has no entry in notFlags: a knob with one value in use is a constant", f.Name)
		}
	}
	for name := range notFlags {
		if _, ok := reflect.TypeOf(Options{}).FieldByName(name); !ok {
			t.Errorf("notFlags names Options.%s, which does not exist", name)
		}
	}

	// Every non-test Go file of the product and of the benchmark module
	// (examples do not count as users); withDefaults and the engines' Open
	// fill in defaults, not values in use.
	files := goFiles(t, ".", "cmd", "internal", "benchmark")
	defaults := []string{"withDefaults", "Open"}
	used := assignedFields(t, files, defaults...)
	for pkg, typ := range engineOptions {
		single := oneValueFields(t, files, defaults, pkg, typ)
		for _, f := range reflect.VisibleFields(typ) {
			name := pkg + "." + f.Name
			_, excused := testShaped[name]
			switch {
			case used[f.Name] && excused:
				t.Errorf("%s.Options.%s is assigned by non-test code and also excused in testShaped: drop the excuse", pkg, f.Name)
			case !used[f.Name] && !excused:
				t.Errorf("%s.Options.%s is assigned by no non-test file and has no entry in testShaped: make it a constant", pkg, f.Name)
			case single[f.Name] != "" && !excused:
				t.Errorf("%s.Options.%s is %s in every non-test literal and assignment: a knob with one value in use is a constant", pkg, f.Name, single[f.Name])
			}
		}
	}
	for name := range testShaped {
		pkg, field, _ := strings.Cut(name, ".")
		if typ, ok := engineOptions[pkg]; !ok {
			t.Errorf("testShaped names %s, which is not a package the census walks", name)
		} else if _, ok := typ.FieldByName(field); !ok {
			t.Errorf("testShaped names %s.Options.%s, which does not exist", pkg, field)
		}
	}
}

// assignedFields returns the field names the files assign — x.F = …,
// &x.F (flag.XxxVar) or a composite-literal key F: … — outside the
// functions named skip. It is syntactic: a same-named field of another
// struct counts too, which can only excuse a knob, never condemn one.
func assignedFields(t *testing.T, files []string, skip ...string) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				return !slices.Contains(skip, n.Name.Name)
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						out[sel.Sel.Name] = true
					}
				}
			case *ast.UnaryExpr:
				if sel, ok := n.X.(*ast.SelectorExpr); ok && n.Op == token.AND {
					out[sel.Sel.Name] = true
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					out[id.Name] = true
				}
			}
			return true
		})
	}
	return out
}

// oneValueFields returns the fields of pkg's Options, typ, that every
// composite literal of that type and every x.F = … assignment in files
// (outside the functions named skip) set to one and the same literal, with that literal; a
// composite literal that omits a field sets it to its zero value. Anything
// but a literal — a variable, a call, a named constant, a flag binding (&x.F)
// — counts as a value of its own. Like assignedFields it is syntactic, so a
// same-named field of another struct can only excuse a knob, never condemn
// one.
func oneValueFields(t *testing.T, files, skip []string, pkg string, typ reflect.Type) map[string]string {
	t.Helper()
	const dynamic = "(not a literal)"
	values := map[string]map[string]bool{}
	for _, f := range reflect.VisibleFields(typ) {
		values[f.Name] = map[string]bool{}
	}
	note := func(field, v string) {
		if vs, ok := values[field]; ok {
			vs[v] = true
		}
	}
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		inPkg := filepath.Dir(name) == filepath.Join("internal", pkg)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				return !slices.Contains(skip, n.Name.Name)
			case *ast.CompositeLit:
				if !isOptionsOf(n.Type, pkg, inPkg) {
					return true
				}
				set := map[string]string{}
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							set[id.Name] = literal(kv.Value, dynamic)
						}
					}
				}
				for field := range values {
					if v, ok := set[field]; ok {
						note(field, v)
					} else {
						note(field, "the zero value")
					}
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						v := dynamic
						if n.Tok == token.ASSIGN && len(n.Rhs) == len(n.Lhs) {
							v = literal(n.Rhs[i], dynamic)
						}
						note(sel.Sel.Name, v)
					}
				}
			case *ast.UnaryExpr:
				if sel, ok := n.X.(*ast.SelectorExpr); ok && n.Op == token.AND {
					note(sel.Sel.Name, dynamic)
				}
			}
			return true
		})
	}
	out := map[string]string{}
	for field, vs := range values {
		if len(vs) == 1 && !vs[dynamic] {
			for v := range vs {
				out[field] = v
			}
		}
	}
	return out
}

// isOptionsOf reports whether a composite literal's type is pkg.Options
// (spelled Options inside pkg).
func isOptionsOf(typ ast.Expr, pkg string, inPkg bool) bool {
	switch typ := typ.(type) {
	case *ast.SelectorExpr:
		x, ok := typ.X.(*ast.Ident)
		return ok && x.Name == pkg && typ.Sel.Name == "Options"
	case *ast.Ident:
		return inPkg && typ.Name == "Options"
	}
	return false
}

// literal spells a constant expression made of literals — 4 << 20, true,
// -1 — with the zero values spelled alike, and anything else as dynamic.
func literal(e ast.Expr, dynamic string) string {
	switch e := e.(type) {
	case *ast.BasicLit:
		if e.Value == "0" || e.Value == `""` {
			return "the zero value"
		}
		return e.Value
	case *ast.Ident:
		switch e.Name {
		case "false", "nil":
			return "the zero value"
		case "true":
			return "true"
		}
	case *ast.ParenExpr:
		return literal(e.X, dynamic)
	case *ast.UnaryExpr:
		if x := literal(e.X, dynamic); x != dynamic {
			return e.Op.String() + x
		}
	case *ast.BinaryExpr:
		x, y := literal(e.X, dynamic), literal(e.Y, dynamic)
		if x != dynamic && y != dynamic {
			return x + " " + e.Op.String() + " " + y
		}
	}
	return dynamic
}
