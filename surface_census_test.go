package p2kvs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The surface census, one level out from the option census: a RESP verb or
// an exported engine/store method earns its place by having a caller
// outside tests — a tool under cmd/, the cluster client, the load
// generator, the stress table — or a reason here. It is syntactic, like
// assignedFields: a same-named string or method elsewhere can only excuse
// an entry, never condemn one.

// unsentVerbs: verbs conn.execOne dispatches that no tool sends, and why
// they stay.
var unsentVerbs = map[string]string{
	"COMMAND":   "the redis-cli handshake",
	"SELECT":    "the redis-cli handshake",
	"QUIT":      "the redis-cli exit",
	"SHUTDOWN":  "operator command: drain and stop from a client, the wire twin of SIGTERM",
	"REPLICAOF": "operator command: the runtime form of p2kvs-server -replicaof (manual failover, README 'Replication')",
}

// verbSenders: where a verb must appear as a string literal (or, in the
// stress table, as a word). internal/server/repl.go is the replica side of
// the replication protocol, a client of PSYNC.
var verbSenders = []string{"cmd", "internal/cluster", "internal/loadgen", "internal/server/repl.go"}

// uncalledMethods: exported methods of the store and engine types that no
// non-test file outside benchmark/ calls, and why they stay.
var uncalledMethods = map[string]string{
	"core.Store.GetAsync": "the paper's §4.1 asynchronous interface; the repo benchmark's read loop drives it (benchmark/, its own module)",
	"lsm.DB.CompactRange": "manual compaction of a key range: tests use it to place data in a chosen level",
}

// unnamedFuncs: exported functions of internal packages that no non-test
// file names, and why they stay.
var unnamedFuncs = map[string]string{}

// maxKVInterfaces bounds the engine contract: internal/kv declares every
// interface an engine can be asked for, and no more than this many.
const maxKVInterfaces = 13

// unassertedInterfaces: interfaces of internal/kv that no non-test code of
// the accessing layer (internal/core, internal/server, the facade, kv.CapsOf)
// type-asserts an engine to, and why they stay.
var unassertedInterfaces = map[string]string{
	"Engine":           "the contract itself: what an EngineFactory returns",
	"Iterator":         "what Engine.NewIterator returns",
	"CheckpointWriter": "what Checkpointer.PrepareCheckpoint returns",
	"RateLimiter":      "a parameter of Scrubber.Scrub; internal/scrub implements it",
	"RepairSource":     "an engine option, not a capability: the facade's backupRepairSource implements it",
}

func TestSurfaceCensus(t *testing.T) {
	fset := token.NewFileSet()
	sources := goFiles(t, "cmd", "internal", "examples", ".")
	parsed := map[string]*ast.File{}
	for _, name := range sources {
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		parsed[name] = f
	}

	// RESP verbs: the case arms of execOne's switch.
	var verbs []string
	ast.Inspect(parsed["internal/server/conn.go"], func(n ast.Node) bool {
		fd, ok := n.(*ast.FuncDecl)
		if !ok || fd.Name.Name != "execOne" {
			return true
		}
		ast.Inspect(fd, func(n ast.Node) bool {
			if cc, ok := n.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					if lit, ok := e.(*ast.BasicLit); ok && lit.Kind == token.STRING {
						v, _ := strconv.Unquote(lit.Value)
						verbs = append(verbs, v)
					}
				}
			}
			return true
		})
		return false
	})
	if len(verbs) < 10 {
		t.Fatalf("found only %d verbs in conn.execOne: the census no longer sees the dispatch", len(verbs))
	}
	sent := map[string]bool{}
	for name, f := range parsed {
		if !underAny(name, verbSenders) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if v, err := strconv.Unquote(lit.Value); err == nil {
					sent[v] = true
				}
			}
			return true
		})
	}
	stress, err := os.ReadFile("scripts/stress.sh")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range regexp.MustCompile(`[A-Z]+`).FindAllString(string(stress), -1) {
		sent[w] = true
	}
	checkCensus(t, "RESP verb", verbs, sent, unsentVerbs)

	// Exported methods of the store and the three engine types.
	var methods []string
	declared := map[*ast.Ident]bool{}
	for _, typ := range [][2]string{{"core", "Store"}, {"lsm", "DB"}, {"btreekv", "DB"}, {"kvell", "Store"}} {
		for name, f := range parsed {
			if !strings.HasPrefix(name, "internal/"+typ[0]+"/") {
				continue
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || !fd.Name.IsExported() {
					continue
				}
				recv := fd.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok && id.Name == typ[1] {
					methods = append(methods, typ[0]+"."+typ[1]+"."+fd.Name.Name)
					declared[fd.Name] = true
				}
			}
		}
	}
	// A call counts from outside the method's own package only: a method
	// nothing else calls is not an entry point, whatever its package does.
	called := map[string]map[string]bool{} // package dir -> selector names
	for _, typ := range [][2]string{{"core", "Store"}, {"lsm", "DB"}, {"btreekv", "DB"}, {"kvell", "Store"}} {
		names := map[string]bool{}
		for name, f := range parsed {
			if strings.HasPrefix(name, "internal/"+typ[0]+"/") {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					names[sel.Sel.Name] = true
				}
				return true
			})
		}
		called[typ[0]] = names
	}
	calledQualified := map[string]bool{}
	for _, m := range methods {
		pkg, name := m[:strings.IndexByte(m, '.')], m[strings.LastIndexByte(m, '.')+1:]
		calledQualified[m] = called[pkg][name]
	}
	checkCensus(t, "exported method", methods, calledQualified, uncalledMethods)

	// Exported functions of the internal packages (kvtest is test support by
	// design): each is named by a non-test file, as pkg.F from another
	// package or as a bare F inside its own, or excused.
	var funcs []string
	for name, f := range parsed {
		if !strings.HasPrefix(name, "internal/") || strings.HasPrefix(name, "internal/kv/kvtest/") {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() {
				funcs = append(funcs, f.Name.Name+"."+fd.Name.Name)
				declared[fd.Name] = true
			}
		}
	}
	named := map[string]bool{}
	for _, f := range parsed {
		sels := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				sels[n.Sel] = true
				if pkg, ok := n.X.(*ast.Ident); ok {
					named[pkg.Name+"."+n.Sel.Name] = true
				}
			case *ast.Ident:
				if !sels[n] && !declared[n] {
					named[f.Name.Name+"."+n.Name] = true
				}
			}
			return true
		})
	}
	checkCensus(t, "exported function", funcs, named, unnamedFuncs)

	// The engine contract: every interface of internal/kv is something the
	// accessing layer asks an engine for, or is excused; the asking happens
	// once per engine, in core's newWorker, and only for interfaces kv
	// declares — so no other package can grow a capability of its own.
	inKV := func(name string) bool { return filepath.Dir(name) == "internal/kv" }
	var ifaces []string
	for name, f := range parsed {
		if !inKV(name) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok {
				if _, ok := ts.Type.(*ast.InterfaceType); ok {
					ifaces = append(ifaces, ts.Name.Name)
				}
			}
			return true
		})
	}
	if len(ifaces) == 0 || len(ifaces) > maxKVInterfaces {
		t.Errorf("internal/kv declares %d interfaces %v, want 1..%d: merge one into a neighbour or delete one", len(ifaces), ifaces, maxKVInterfaces)
	}
	isKV := map[string]bool{}
	for _, name := range ifaces {
		isKV[name] = true
	}
	asserted := map[string]bool{}
	inConstructor := 0
	for name, f := range parsed {
		layer := underAny(name, []string{"internal/core", "internal/server"})
		if !layer && !inKV(name) && strings.Contains(name, "/") {
			continue // not the accessing layer, the facade or kv itself
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			ast.Inspect(fd, func(n ast.Node) bool {
				ta, ok := n.(*ast.TypeAssertExpr)
				if !ok || ta.Type == nil {
					return true
				}
				var kvName string
				switch typ := ta.Type.(type) {
				case *ast.SelectorExpr:
					if pkg, ok := typ.X.(*ast.Ident); ok && pkg.Name == "kv" {
						kvName = typ.Sel.Name
					}
				case *ast.Ident:
					if inKV(name) {
						kvName = typ.Name
					}
				}
				asserted[kvName] = true
				if sel, ok := ta.X.(*ast.SelectorExpr); ok && layer && sel.Sel.Name == "engine" {
					switch {
					case fd.Name.Name != "newWorker":
						t.Errorf("%s: %s asserts a worker's engine to a type: ask once, in newWorker, and keep the answer in a field", fset.Position(ta.Pos()), fd.Name.Name)
					case !isKV[kvName]:
						t.Errorf("%s: newWorker asks the engine for a capability internal/kv does not declare", fset.Position(ta.Pos()))
					default:
						inConstructor++
					}
				}
				return true
			})
		}
	}
	if inConstructor == 0 {
		t.Error("found no engine assertion in core's newWorker: the census no longer sees where capabilities are resolved")
	}
	checkCensus(t, "internal/kv interface", ifaces, asserted, unassertedInterfaces)
}

// checkCensus fails every name that is neither used nor excused, every
// excuse for a name that is used, and every excuse for a name that is gone.
func checkCensus(t *testing.T, kind string, names []string, used map[string]bool, excuses map[string]string) {
	t.Helper()
	exists := map[string]bool{}
	for _, n := range names {
		exists[n] = true
		_, excused := excuses[n]
		switch {
		case used[n] && excused:
			t.Errorf("%s %s has a non-test caller and is also excused: drop the excuse", kind, n)
		case !used[n] && !excused:
			t.Errorf("%s %s has no caller outside tests and no excuse: delete it, or give it a user", kind, n)
		}
	}
	for n := range excuses {
		if !exists[n] {
			t.Errorf("the census excuses %s %s, which does not exist", kind, n)
		}
	}
}

// goFiles lists the non-test Go files under the roots; "." is the root
// directory alone, not its subtree.
func goFiles(t *testing.T, roots ...string) []string {
	t.Helper()
	var files []string
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && root == "." && path != "." {
				return filepath.SkipDir
			}
			if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return files
}

func underAny(name string, prefixes []string) bool {
	for _, p := range prefixes {
		if name == p || strings.HasPrefix(name, p+"/") {
			return true
		}
	}
	return false
}

// TestFuzzShortRunsEveryTarget: make fuzz-short has one -fuzz=<Name> line
// per fuzz target, run on the package that declares it (Go fuzzes one
// target per invocation, so a target without a line is never fuzzed).
func TestFuzzShortRunsEveryTarget(t *testing.T) {
	raw, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	_, recipe, ok := strings.Cut(string(raw), "\nfuzz-short:\n")
	if !ok {
		t.Fatal("Makefile has no fuzz-short target")
	}
	lines := map[string]bool{} // "Name ./pkg"
	fuzzLine := regexp.MustCompile(`-fuzz=(\w+) .*(\./\S+)$`)
	for _, line := range strings.Split(recipe, "\n") {
		if !strings.HasPrefix(line, "\t") {
			break
		}
		if m := fuzzLine.FindStringSubmatch(line); m != nil {
			lines[m[1]+" "+m[2]] = true
		}
	}
	target := regexp.MustCompile(`(?m)^func (Fuzz\w*)\(`)
	found := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (path == "benchmark" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range target.FindAllStringSubmatch(string(src), -1) {
			found++
			if want := m[1] + " ./" + filepath.Dir(path); !lines[want] {
				t.Errorf("%s declares %s, which make fuzz-short does not run: add `$(GO) test -fuzz=%s -fuzztime=$(FUZZTIME) ./%s`", path, m[1], m[1], filepath.Dir(path))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if found == 0 {
		t.Fatal("found no fuzz targets: the census no longer sees how they are declared")
	}
}

// TestStressRunTermsNameTests: every -run term of scripts/stress.sh names
// a test of its row. The part of a pattern before its first / selects
// top-level tests, and each of its | alternatives must match some Test,
// Fuzz or Benchmark function declared in a _test.go file of the packages
// the row runs; a term that matches nothing (a test renamed or moved
// elsewhere) lets its row pass while running less than it says.
func TestStressRunTermsNameTests(t *testing.T) {
	raw, err := os.ReadFile("scripts/stress.sh")
	if err != nil {
		t.Fatal(err)
	}
	runFlag := regexp.MustCompile(`-run[ =]('[^']*'|"[^"]*"|\S+)`)
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	declared := map[string][]string{} // package dir -> its test functions
	names := func(dir string) []string {
		if got, ok := declared[dir]; ok {
			return got
		}
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
				out = append(out, m[1])
			}
		}
		declared[dir] = out
		return out
	}
	rows := 0
	for _, line := range strings.Split(string(raw), "\n") {
		m := runFlag.FindStringSubmatchIndex(line)
		if m == nil {
			continue
		}
		rows++
		var pkgs []string
		for _, f := range strings.Fields(line[m[1]:]) {
			if f == "." || strings.HasPrefix(f, "./") {
				pkgs = append(pkgs, f)
			}
		}
		if len(pkgs) == 0 {
			t.Errorf("scripts/stress.sh: a -run row names no package: %s", line)
			continue
		}
		top, _, _ := strings.Cut(strings.Trim(line[m[2]:m[3]], `'"`), "/")
		for _, term := range strings.Split(top, "|") {
			re, err := regexp.Compile(term)
			if err != nil {
				t.Errorf("scripts/stress.sh: -run term %q: %v", term, err)
				continue
			}
			matched := false
			for _, pkg := range pkgs {
				for _, name := range names(pkg) {
					matched = matched || re.MatchString(name)
				}
			}
			if !matched {
				t.Errorf("scripts/stress.sh: -run term %q matches no test in %s", term, strings.Join(pkgs, " "))
			}
		}
	}
	if rows == 0 {
		t.Fatal("found no -run in scripts/stress.sh: the test no longer sees how its rows select tests")
	}
}
