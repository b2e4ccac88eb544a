package loadgen

import (
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
)

// OpType is one generated operation's kind.
type OpType int

// Operation kinds. RMW is a GET and an UPDATE to the same key (Table 1).
const (
	OpInsert OpType = iota
	OpUpdate
	OpRead
	OpScan
	OpRMW
)

// Spec is one row of the op-mix table: the proportions of each
// operation kind and the key distribution they draw from.
type Spec struct {
	Name   string
	Insert float64
	Update float64
	Read   float64
	Scan   float64
	RMW    float64
	// Dist is "uniform", "zipfian", "latest" or "seq" (see Dists). The
	// wire phases leave it empty: netbench's -dist fills it in.
	Dist string
	// Preload marks mixes that read or update existing keys, so the key
	// space must be populated before the phase runs.
	Preload bool
	// MaxScanLen, when positive, draws scan sizes uniformly from
	// [1, MaxScanLen] (YCSB default 100); zero leaves Op.ScanLen unset
	// and the executor's fixed scan size applies.
	MaxScanLen int
}

// Table holds every op mix the load tools can run: the db_bench micro
// kinds (Figures 1, 5, 12, 14, 15, 22, 23), netbench's wire phases, and
// the YCSB workloads exactly as the paper's Table 1 specifies them
// (Figures 16-20). Fills overwrite chooser-picked keys (db_bench
// semantics); YCSB inserts extend the key space at the frontier.
var Table = []Spec{
	{Name: "fillseq", Update: 1, Dist: "seq"},
	{Name: "fillrandom", Update: 1, Dist: "uniform"},
	{Name: "updaterandom", Update: 1, Dist: "uniform", Preload: true},
	{Name: "updatezipfian", Update: 1, Dist: "zipfian", Preload: true},
	{Name: "readseq", Read: 1, Dist: "seq", Preload: true},
	{Name: "readrandom", Read: 1, Dist: "uniform", Preload: true},
	{Name: "readzipfian", Read: 1, Dist: "zipfian", Preload: true},
	{Name: "scan", Scan: 1, Dist: "uniform", Preload: true},

	{Name: "set", Update: 1},
	{Name: "get", Read: 1, Preload: true},
	{Name: "mixed", Update: 0.1, Read: 0.9, Preload: true},

	{Name: "ycsb-load", Insert: 1.0, Dist: "uniform"},
	{Name: "ycsb-a", Update: 0.5, Read: 0.5, Dist: "zipfian", Preload: true},
	{Name: "ycsb-b", Update: 0.05, Read: 0.95, Dist: "zipfian", Preload: true},
	{Name: "ycsb-c", Read: 1.0, Dist: "zipfian", Preload: true},
	{Name: "ycsb-d", Insert: 0.05, Read: 0.95, Dist: "latest", Preload: true},
	{Name: "ycsb-e", Insert: 0.05, Scan: 0.95, Dist: "uniform", Preload: true, MaxScanLen: 100},
	{Name: "ycsb-f", RMW: 0.5, Read: 0.5, Dist: "zipfian", Preload: true},
}

// YCSBOrder lists the YCSB rows in the paper's presentation order.
var YCSBOrder = []string{"ycsb-load", "ycsb-a", "ycsb-b", "ycsb-c", "ycsb-d", "ycsb-e", "ycsb-f"}

// Lookup finds a Table row by name.
func Lookup(name string) (Spec, bool) {
	for _, s := range Table {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// MustLookup is Lookup for names fixed at compile time.
func MustLookup(name string) Spec {
	s, ok := Lookup(name)
	if !ok {
		panic("loadgen: unknown op mix " + name)
	}
	return s
}

// ParseMixes resolves a comma-separated -benchmarks list against Table,
// so a misspelt phase is rejected before any earlier phase has run. Rows
// that leave Dist open take dist, which must be one of Dists.
func ParseMixes(list, dist string) ([]Spec, error) {
	if _, err := NewChooser(dist, 1, NewFrontier(1), 0); err != nil {
		return nil, err
	}
	var out []Spec
	for _, name := range strings.Split(list, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		s, ok := Lookup(name)
		if !ok {
			valid := make([]string, len(Table))
			for i, row := range Table {
				valid[i] = row.Name
			}
			return nil, fmt.Errorf("unknown benchmark %q (valid: %s)", name, strings.Join(valid, ", "))
		}
		if s.Dist == "" {
			s.Dist = dist
		}
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no benchmarks given")
	}
	return out, nil
}

// Op is one generated operation.
type Op struct {
	Type    OpType
	KeyIdx  uint64
	ScanLen int // 0: the executor's default
}

// Generator produces an operation stream for one client thread. The
// insertion frontier is shared across generators so "latest" and inserts
// compose correctly under concurrency.
type Generator struct {
	spec     Spec
	chooser  Chooser
	frontier *atomic.Uint64
	r        *rand.Rand
}

// NewFrontier creates the shared insertion counter, pre-advanced past the
// already-loaded key count.
func NewFrontier(loaded uint64) *atomic.Uint64 {
	f := &atomic.Uint64{}
	f.Store(loaded)
	return f
}

// NewGenerator builds a per-thread generator over a key space of n loaded
// keys. spec.Dist must name a chooser (see Dists).
func NewGenerator(spec Spec, n uint64, frontier *atomic.Uint64, seed int64) *Generator {
	ch, err := NewChooser(spec.Dist, n, frontier, seed)
	if err != nil {
		panic("loadgen: mix " + spec.Name + ": " + err.Error())
	}
	return &Generator{spec: spec, chooser: ch, frontier: frontier, r: rand.New(rand.NewSource(seed))}
}

// Next returns the next operation.
func (g *Generator) Next() Op {
	p := g.r.Float64()
	s := g.spec
	switch {
	case p < s.Insert:
		// Inserts extend the key space at the frontier.
		idx := g.frontier.Add(1) - 1
		return Op{Type: OpInsert, KeyIdx: idx}
	case p < s.Insert+s.Update:
		return Op{Type: OpUpdate, KeyIdx: g.chooser.Next()}
	case p < s.Insert+s.Update+s.Read:
		return Op{Type: OpRead, KeyIdx: g.chooser.Next()}
	case p < s.Insert+s.Update+s.Read+s.Scan:
		op := Op{Type: OpScan, KeyIdx: g.chooser.Next()}
		if s.MaxScanLen > 0 {
			op.ScanLen = g.r.Intn(s.MaxScanLen) + 1
		}
		return op
	default:
		return Op{Type: OpRMW, KeyIdx: g.chooser.Next()}
	}
}
