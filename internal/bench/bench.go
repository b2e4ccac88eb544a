// Package bench contains one runner per table and figure in the paper's
// evaluation (§1 Figure 1, §3 Figures 4-8, §5 Figures 12-23 and Tables
// 1-2), plus the ablations DESIGN.md calls out. Each runner prints the
// same rows/series the paper reports and returns them for programmatic
// checks.
//
// # Time model
//
// The host's sleep granularity (~1ms here) makes microsecond-accurate
// device sleeps impossible, so every experiment runs its simulated device
// at a per-profile time scale s chosen to push the smallest charged IO
// latency above the sleep floor, and reports throughput in simulated
// operations per second:
//
//	simQPS = measuredOps * s / wallClock
//
// Dividing by s also shrinks the real CPU contribution of this Go
// implementation by s, so reported numbers are IO-model-dominated. That
// is the intended reading: per-IO latencies in the device profiles stand
// in for the per-IO host software cost the paper identifies as the real
// bottleneck (§3.1), so "fewer, larger IOs" (batching, group logging)
// and "more parallel IO streams" (multi-instance) translate into exactly
// the throughput effects the paper measures. Absolute numbers are not
// comparable to the paper's testbed; shapes and ratios are.
package bench

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"p2kvs/internal/device"
	"p2kvs/internal/vfs"
)

// Env is the shared experiment configuration.
type Env struct {
	// Out receives the printed tables.
	Out io.Writer
	// Budget is the wall-clock target per measured cell (default 2s).
	Budget time.Duration
	// MinOps / MaxOps bound the per-cell operation count.
	MinOps int
	MaxOps int
	// ValueSize is the KV value size (paper default 128B).
	ValueSize int
	// Keys is the preloaded key-space size for read benches.
	Keys int
	// Quick is the smoke-run mode: smaller budgets and key space, and
	// every sweep trimmed to its end points (see ends).
	Quick bool
}

// WithDefaults fills unset fields.
func (e Env) WithDefaults() Env {
	if e.Out == nil {
		e.Out = io.Discard
	}
	if e.Budget <= 0 {
		e.Budget = 2 * time.Second
	}
	if e.MinOps <= 0 {
		e.MinOps = 200
	}
	if e.MaxOps <= 0 {
		e.MaxOps = 40000
	}
	if e.ValueSize <= 0 {
		e.ValueSize = 128
	}
	if e.Keys <= 0 {
		e.Keys = 20000
	}
	if e.Quick {
		e.Budget = 300 * time.Millisecond
		e.MinOps = 50
		e.MaxOps = 3000
		e.Keys = 2000
	}
	return e
}

// ends trims a sweep axis to its first and last point under Quick. A
// smoke run still takes both extremes an axis selects between and every
// measured cell keeps its whole (Quick) budget; what shrinks is the
// number of cells.
func ends[T any](e Env, axis ...T) []T {
	if !e.Quick || len(axis) <= 2 {
		return axis
	}
	return []T{axis[0], axis[len(axis)-1]}
}

// Scales map device profiles to the time multiplier that lifts their
// smallest per-IO latency above the host sleep floor.
func scaleFor(prof device.Profile) float64 {
	switch prof.Name {
	case "nvme":
		return 300 // 5us seq -> 1.5ms
	case "sata":
		return 50 // 30us seq -> 1.5ms
	case "hdd":
		return 25 // 50us seq -> 1.25ms; 8ms seek -> 200ms
	default:
		return 1
	}
}

// newDevFS builds a fresh in-memory filesystem behind a simulated device.
func newDevFS(prof device.Profile) (*device.FS, float64) {
	s := scaleFor(prof)
	return device.WrapFS(vfs.NewMem(), device.New(prof, s)), s
}

// Res is one measured cell.
type Res struct {
	Ops    int64
	Wall   time.Duration
	SimQPS float64
}

// measure runs op concurrently on `threads` closed-loop client threads
// until the budget elapses (and at least MinOps completed), then converts
// to simulated QPS at the given device scale. op receives the thread id
// and a per-thread op counter.
func (e Env) measure(threads int, scale float64, op func(tid, i int) error) (Res, error) {
	var (
		total   atomic.Int64
		stop    atomic.Bool
		firstMu sync.Mutex
		first   error
	)
	maxPer := e.MaxOps / threads
	if maxPer < 1 {
		maxPer = 1
	}
	start := time.Now()
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < maxPer; i++ {
				if stop.Load() {
					return
				}
				if err := op(tid, i); err != nil {
					firstMu.Lock()
					if first == nil {
						first = err
					}
					firstMu.Unlock()
					stop.Store(true)
					return
				}
				n := total.Add(1)
				elapsed := time.Since(start)
				// Budget-bounded: normally wait for MinOps, but a hard
				// cap at 5x budget keeps very slow cells (HDD seeks,
				// large scans) from running away.
				if (n >= int64(e.MinOps) && elapsed > e.Budget) || elapsed > 5*e.Budget {
					stop.Store(true)
					return
				}
			}
		}(t)
	}
	wg.Wait()
	wall := time.Since(start)
	if first != nil {
		return Res{}, first
	}
	ops := total.Load()
	return Res{
		Ops:    ops,
		Wall:   wall,
		SimQPS: float64(ops) * scale / wall.Seconds(),
	}, nil
}

// ---------------------------------------------------------------------------
// Output helpers
// ---------------------------------------------------------------------------

// Table accumulates aligned rows for printing.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// NewTable starts a table.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// Add appends a row of stringified cells.
func (t *Table) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmtFloat(v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

func fmtFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fK", v/1e3)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// Print renders the table with aligned columns.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Header, "\t"))
	for _, r := range t.Rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	tw.Flush()
}
