package p2kvs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"p2kvs/internal/btreekv"
	"p2kvs/internal/cluster"
	"p2kvs/internal/core"
	"p2kvs/internal/kvell"
	"p2kvs/internal/lsm"
	"p2kvs/internal/server"
	"p2kvs/internal/wal"
)

// The option census: a knob earns its place by having two values in use
// outside tests. Every field of Options must be settable from the shared
// command-line flag set (loadgen.StoreFlags — the four binaries) or carry
// a reason here; every field of the core store's, the engines', the WAL's,
// the cluster client's Options and the server's Config must be assigned by
// some non-test source file (a preset, the facade, a binary, an
// internal/bench experiment), and not set to one and the same literal by all
// of them, or carry a reason here. A field that fails is a constant in
// disguise: delete it, or — if it has a real second value — wire it up.

// notFlags: Options fields no flag sets, and why they stay.
var notFlags = map[string]string{
	"BlockCacheSize": "memory sizing for embedders; dbbench's experiments size the cache per figure at the lsm layer",
	"Admission":      "each binary has its own default: p2kvs-server sheds (AdmitReject), the load drivers block",
	"SimulateDevice": "dbbench -hotcache_bench puts its stores on the simulated SATA device; the paper figures pick devices in internal/bench",
}

// testShaped: fields of the walked option types only tests assign, and why
// they stay.
var testShaped = map[string]string{
	"lsm.MaxImmutables":       "tests bound the flush queue to force write stalls",
	"lsm.L0CompactionTrigger": "tests tighten it to keep several compactions in flight (torture lsm-parallel)",
	"lsm.L0StallTrigger":      "same: the stall and slowdown bands are placed relative to it",
	"lsm.L0SlowdownTrigger":   "same",
	"lsm.BgMaxRetries":        "tests shorten the retry schedule so a persistent fault degrades in milliseconds",
	"lsm.BgBaseBackoff":       "same",
	"lsm.BgMaxBackoff":        "same",
	"core.CutoverBudget":      "TestDirectReadHistory widens it to 1s so a loaded -race run does not abort its reshards",
	"server.CheckpointFS":     "tests put a server's checkpoints on a MemFS; p2kvs-server writes them to the host filesystem",
}

// optionTypes are the option types the census walks, by package name.
var optionTypes = map[string]reflect.Type{
	"core":    reflect.TypeOf(core.Options{}),
	"lsm":     reflect.TypeOf(lsm.Options{}),
	"btreekv": reflect.TypeOf(btreekv.Options{}),
	"kvell":   reflect.TypeOf(kvell.Options{}),
	"wal":     reflect.TypeOf(wal.Options{}),
	"cluster": reflect.TypeOf(cluster.Options{}),
	"server":  reflect.TypeOf(server.Config{}),
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
	// (examples do not count as users); withDefaults, the engines' Open and
	// cluster.New fill in defaults, not values in use.
	files := goFiles(t, ".", "cmd", "internal", "benchmark")
	defaults := []string{"withDefaults", "Open", "New"}
	used := assignedFields(t, files, defaults...)
	for pkg, typ := range optionTypes {
		single := oneValueFields(t, files, defaults, pkg, typ)
		for _, f := range reflect.VisibleFields(typ) {
			name := pkg + "." + f.Name
			_, excused := testShaped[name]
			switch {
			case used[f.Name] && excused:
				t.Errorf("%s.%s.%s is assigned by non-test code and also excused in testShaped: drop the excuse", pkg, typ.Name(), f.Name)
			case !used[f.Name] && !excused:
				t.Errorf("%s.%s.%s is assigned by no non-test file and has no entry in testShaped: make it a constant", pkg, typ.Name(), f.Name)
			case single[f.Name] != "" && !excused:
				t.Errorf("%s.%s.%s is %s in every non-test literal and assignment: a knob with one value in use is a constant", pkg, typ.Name(), f.Name, single[f.Name])
			}
		}
	}
	for name := range testShaped {
		pkg, field, _ := strings.Cut(name, ".")
		if typ, ok := optionTypes[pkg]; !ok {
			t.Errorf("testShaped names %s, which is not a package the census walks", name)
		} else if _, ok := typ.FieldByName(field); !ok {
			t.Errorf("testShaped names %s.%s.%s, which does not exist", pkg, typ.Name(), field)
		}
	}
}

// The flag census: every flag of the four binaries (cmd/*/*.go and the
// store flags they share, loadgen.StoreFlags) has a user. A flag is used
// when a line of scripts/stress.sh, the Makefile or CI that starts one of
// the binaries passes it, or when a binary starts another with it (a cmd/
// string literal that is exactly "-name": netbench -crash and its servers).
// Matching is by name, so a same-named flag can only excuse another, never
// condemn it. A flag nothing passes is a knob with one value in use: delete
// it and what only it kept alive, or excuse it here.

// unusedFlags: flags nothing passes, and why they stay.
var unusedFlags = map[string]string{
	// Deployment settings: an operator's, with nothing to measure.
	"debug_addr":         "p2kvs-server's HTTP listener for /metrics and /debug/pprof",
	"repl_dir":           "where a replica stages full-sync images; the default sits beside -dir",
	"repair_from":        "the backup self-repair reads; p2kvs-server defaults it to -checkpoint_dir",
	"crash_dir":          "keeps netbench -crash's server directories for a post-mortem (default: a temp dir it removes)",
	"max_conns":          "p2kvs-server's connection cap",
	"drain_timeout":      "bounds the graceful shutdown; each binary sets its own default",
	"conn_write_timeout": "p2kvs-server's deadline for a client that stops reading",
	"scrub_interval":     "the background scrub's cadence (the scrub suite drives SCRUB and Store.Scrub)",
	"scrub_rate":         "the background scrub's read-bandwidth budget",
	// Tool modes, run by hand.
	"experiment":    "dbbench's paper tables and figures (internal/bench)",
	"list":          "prints the -experiment ids",
	"quick":         "-experiment's smoke budget",
	"budget":        "-experiment's wall-clock budget per cell",
	"maxops":        "-experiment's operation cap per cell",
	"replica_reads": "p2kvs-cli's cluster shell reads from replicas (its -cluster shares netbench's used name)",
}

// binaryInvocation matches a script line that starts one of the binaries:
// their names, and the helpers of scripts/stress.sh that wrap them (crash
// runs netbench -crash, boot runs p2kvs-server, $nb is netbench). A match on
// a line that does not start one (a suite named crash) can only excuse.
var (
	binaryInvocation = regexp.MustCompile(`(^|[\s/"'(])(dbbench|netbench|p2kvs-server|p2kvs-cli|\$nb|boot|crash)($|[\s"')])`)
	flagToken        = regexp.MustCompile(`(?:^|[\s'"(])-([a-z][a-z0-9_]*)`)
	flagLiteral      = regexp.MustCompile(`^-[a-z][a-z0-9_]*$`)
)

func TestFlagCensus(t *testing.T) {
	cmdFiles, err := filepath.Glob("cmd/*/*.go")
	if err != nil {
		t.Fatal(err)
	}
	cmdFiles = slices.DeleteFunc(cmdFiles, func(f string) bool { return strings.HasSuffix(f, "_test.go") })
	declared := map[string][]string{} // flag name -> the binaries (or StoreFlags) declaring it
	used := map[string]bool{}
	fset := token.NewFileSet()
	for _, name := range append(cmdFiles, "internal/loadgen/flags.go") {
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		owner := filepath.Base(filepath.Dir(name))
		if owner == "loadgen" {
			owner = "loadgen.StoreFlags"
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if flag, ok := flagName(n); ok {
					declared[flag] = append(declared[flag], owner)
				}
			case *ast.BasicLit:
				if n.Kind != token.STRING || owner == "loadgen.StoreFlags" {
					break
				}
				if s, err := strconv.Unquote(n.Value); err == nil && flagLiteral.MatchString(s) {
					used[s[1:]] = true
				}
			}
			return true
		})
	}
	for _, script := range []string{"scripts/stress.sh", "Makefile", ".github/workflows/ci.yml"} {
		raw, err := os.ReadFile(script)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.ReplaceAll(string(raw), "\\\n", " "), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "#") || !binaryInvocation.MatchString(line) {
				continue
			}
			for _, m := range flagToken.FindAllStringSubmatch(line, -1) {
				used[m[1]] = true
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("found no flag declarations: the census no longer sees how the binaries declare flags")
	}
	count := 0
	for flag, owners := range declared {
		count += len(owners)
		_, excused := unusedFlags[flag]
		switch {
		case used[flag] && excused:
			t.Errorf("-%s (%s) is passed by a script or a binary and also excused: drop the excuse", flag, strings.Join(owners, ", "))
		case !used[flag] && !excused:
			t.Errorf("-%s (%s) is passed by no stress row, Makefile target, CI step or spawning binary and has no excuse: delete it", flag, strings.Join(owners, ", "))
		}
	}
	for flag := range unusedFlags {
		if declared[flag] == nil {
			t.Errorf("unusedFlags excuses -%s, which no binary declares", flag)
		}
	}
	t.Logf("%d flags, %d excused", count, len(unusedFlags))
}

// flagName returns the name a flag-declaring call gives its flag:
// fs.Int(name, value, usage) or fs.IntVar(&v, name, value, usage), by the
// flag package's method names and arities, so a lookup such as
// info.Int("key") is not a declaration.
func flagName(call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	arg := 0
	switch sel.Sel.Name {
	case "Bool", "Int", "Int64", "Uint", "Uint64", "String", "Float64", "Duration", "Func", "BoolFunc":
		if len(call.Args) != 3 {
			return "", false
		}
	case "BoolVar", "IntVar", "Int64Var", "UintVar", "Uint64Var", "StringVar", "Float64Var", "DurationVar", "TextVar", "Var":
		if len(call.Args) < 3 {
			return "", false
		}
		arg = 1
	default:
		return "", false
	}
	lit, ok := call.Args[arg].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	name, err := strconv.Unquote(lit.Value)
	return name, err == nil
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

// oneValueFields returns the fields of pkg's option type, typ, that every
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
				if !isTypeOf(n.Type, pkg, typ.Name(), inPkg) {
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

// isTypeOf reports whether a composite literal's type is pkg.name (spelled
// name inside pkg).
func isTypeOf(typ ast.Expr, pkg, name string, inPkg bool) bool {
	switch typ := typ.(type) {
	case *ast.SelectorExpr:
		x, ok := typ.X.(*ast.Ident)
		return ok && x.Name == pkg && typ.Sel.Name == name
	case *ast.Ident:
		return inPkg && typ.Name == name
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
