package p2kvs

import (
	"os"
	"regexp"
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
