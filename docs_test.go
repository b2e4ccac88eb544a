package p2kvs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestDocsNameRealCounters keeps README.md and DESIGN.md honest: every
// back-ticked store_* / cache_* / reshard_* / repl_* / scrub_* token must
// be a key of the pinned INFO replies (info_keys.golden) or a field of the
// stats document (stats_schema.golden; aggregate fields carry INFO's
// "store_" prefix). A trailing * matches any key with that prefix.
func TestDocsNameRealCounters(t *testing.T) {
	known := map[string]bool{}
	for _, golden := range []string{"internal/server/testdata/info_keys.golden", "internal/core/testdata/stats_schema.golden"} {
		raw, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			path, _, _ := strings.Cut(line, " ")
			leaf := path[strings.LastIndex(path, ".")+1:]
			known[leaf] = true
			if strings.HasPrefix(path, "aggregate.") {
				known["store_"+leaf] = true
			}
		}
	}
	token := regexp.MustCompile("`((?:store|cache|reshard|repl|scrub)_[a-z0-9_]*\\*?)`")
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range token.FindAllStringSubmatch(string(raw), -1) {
			name, glob := strings.CutSuffix(m[1], "*")
			ok := known[name]
			for k := range known {
				ok = ok || glob && strings.HasPrefix(k, name)
			}
			if !ok {
				t.Errorf("%s names `%s`, which is neither an INFO key nor a stats field", doc, m[1])
			}
		}
	}
}

// designLineCeiling is DESIGN.md's length, ratcheted down: a change that
// adds a paragraph removes one, and one that shortens the document lowers
// the ceiling.
const designLineCeiling = 1467

func TestDesignLineCeiling(t *testing.T) {
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(raw), "\n"); n > designLineCeiling {
		t.Errorf("DESIGN.md has %d lines, ceiling %d: replace text instead of adding it", n, designLineCeiling)
	}
}

// goneOnPurpose: names the documents mention because they were deleted.
var goneOnPurpose = map[string]string{
	"Options.SyncWAL": "README says the boolean is gone and what to write instead",
}

// TestDocsNameRealDeclarations: every back-ticked `pkg.Name`, `Type.Member`
// or longer dotted token of README.md and DESIGN.md whose last element is
// mixed-case (so file names, flags and lower-case fields are not tokens)
// must resolve — its last element a top-level declaration (or, as the
// documents abbreviate, a method) of the package, or a method or field of
// the type, its qualifier names. A qualifier that is itself a field or
// variable (`routeMu.RLock`) is an expression, not a name, and is skipped.
// A section that describes a function that no longer exists fails here.
func TestDocsNameRealDeclarations(t *testing.T) {
	top := map[string]map[string]bool{}     // package name -> top-level names and method names
	members := map[string]map[string]bool{} // type name (any package) -> methods and fields
	stdlib, values := map[string]bool{}, map[string]bool{}
	add := func(m map[string]map[string]bool, k, name string) {
		if m[k] == nil {
			m[k] = map[string]bool{}
		}
		m[k][name] = true
	}
	fset := token.NewFileSet()
	for _, name := range goFiles(t, ".", "cmd", "internal") {
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); !strings.HasPrefix(path, "p2kvs") {
				stdlib[path[strings.LastIndexByte(path, '/')+1:]] = true
			}
		}
		pkg := f.Name.Name
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(top, pkg, d.Name.Name)
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if idx, ok := recv.(*ast.IndexExpr); ok { // generic receiver
					recv = idx.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					add(members, id.Name, d.Name.Name)
					add(top, pkg, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							add(top, pkg, id.Name)
							values[id.Name] = true
						}
					case *ast.TypeSpec:
						add(top, pkg, spec.Name.Name)
						var fields *ast.FieldList
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							fields = typ.Fields
						case *ast.InterfaceType:
							fields = typ.Methods
						}
						if fields == nil {
							continue
						}
						for _, fld := range fields.List {
							for _, id := range fld.Names {
								add(members, spec.Name.Name, id.Name)
								values[id.Name] = true
							}
						}
					}
				}
			}
		}
	}

	dotted := regexp.MustCompile("`([A-Za-z_][A-Za-z0-9_]*(?:\\.[A-Za-z_][A-Za-z0-9_]*)+)")
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range dotted.FindAllStringSubmatch(string(raw), -1) {
			parts := strings.Split(m[1], ".")
			qual, last := parts[len(parts)-2], parts[len(parts)-1]
			if strings.ToUpper(last) == last || strings.ToLower(last) == last || stdlib[qual] || values[qual] && top[qual] == nil && members[qual] == nil {
				continue
			}
			if _, gone := goneOnPurpose[qual+"."+last]; gone {
				continue
			}
			if !top[qual][last] && !members[qual][last] {
				t.Errorf("%s names `%s`: no package or type %q declares %q", doc, m[1], qual, last)
			}
		}
	}
}
