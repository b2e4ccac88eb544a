// Command benchmark is the repository's benchmark: four real-time
// workloads against core.Store over the lsm engine on vfs.NewMem(), the
// end-to-end metrics a user of the store would see, and a traced run that
// attributes them to the layers a request crosses. See README.md.
//
//	benchmark --workload W --seed N --seconds S --trace 0|1   one result line (the driver's contract)
//	benchmark run --workload W [--seed N] [--reps R] [--seconds S] [--trace]
//	benchmark all [--seed N] [--reps R] [--seconds S]
//	benchmark check [--seed N] [--reps R] [--seconds S]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

const defaultReps = 3

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// manifest is BENCHMARK.json: the single list of workloads, metrics,
// units, directions and regression bounds. The program emits exactly the
// metrics it names.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`

	root string // directory holding BENCHMARK.json
}

// loadManifest finds BENCHMARK.json in the working directory (the driver
// runs from the root of the checkout) or its parent (go run -C benchmark).
func loadManifest() (*manifest, error) {
	for _, dir := range []string{".", ".."} {
		raw, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		var m manifest
		if err := json.Unmarshal(raw, &m); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		m.root = dir
		return &m, nil
	}
	return nil, errors.New("BENCHMARK.json not found in . or ..")
}

func (m *manifest) outDir() string { return filepath.Join(m.root, "benchmark", "out") }

// stat is one reported metric: the median of the repetitions, with their
// range and count.
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
	N     int     `json:"n,omitempty"`
}

// workloadReport is everything measured on one workload.
type workloadReport struct {
	Correct   bool            `json:"correct"`
	Attempted int64           `json:"attempted"`
	Failed    int64           `json:"failed"`
	FirstErr  string          `json:"first_error,omitempty"`
	EndToEnd  map[string]stat `json:"end_to_end,omitempty"`
	PerLayer  map[string]stat `json:"per_layer,omitempty"`
	TraceFile string          `json:"trace_file,omitempty"`
}

func (r *workloadReport) add(rep *repResult) {
	r.Attempted += rep.attempted
	r.Failed += rep.failed
	if r.FirstErr == "" && rep.firstErr != nil {
		r.FirstErr = rep.firstErr.Error()
	}
	r.Correct = r.Failed == 0
}

// pick builds the reported map for defs from values, failing on a metric
// the program did not produce.
func pick(defs []metricDef, values map[string][]float64) (map[string]stat, error) {
	out := make(map[string]stat, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %q is in BENCHMARK.json but was not measured", d.Name)
		}
		s := stat{Value: median(v), Unit: d.Unit, N: len(v)}
		if len(v) > 1 {
			s.Min, s.Max = slices.Min(v), slices.Max(v)
		}
		out[d.Name] = s
	}
	return out, nil
}

// measure runs reps untraced repetitions whose windows add up to seconds
// and reports the end-to-end metrics.
func measure(m *manifest, w *workload, seed uint64, seconds float64, reps int) (*workloadReport, error) {
	rep := &workloadReport{}
	values := make(map[string][]float64)
	window := time.Duration(seconds / float64(reps) * float64(time.Second))
	for i := 0; i < reps; i++ {
		r, err := runRep(w, seed, i, window, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: repetition %d: %w", w.name, i, err)
		}
		rep.add(r)
		for k, v := range r.endToEnd() {
			values[k] = append(values[k], v)
		}
	}
	values["rss_peak_mb"] = []float64{peakRSSMB()}
	var err error
	rep.EndToEnd, err = pick(m.EndToEnd, values)
	return rep, err
}

// traceRun makes the traced run: one untraced repetition for the
// per-type client latencies and the throughput tracing is compared
// against, then one traced repetition (decorators in place, waterfall,
// then the window under load) for the per-layer numbers. Each window
// lasts half of seconds.
func traceRun(m *manifest, w *workload, seed uint64, seconds float64) (*workloadReport, error) {
	rep := &workloadReport{}
	window := time.Duration(seconds / 2 * float64(time.Second))
	plain, err := runRep(w, seed, 0, window, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: untraced repetition: %w", w.name, err)
	}
	rep.add(plain)
	// Room for the sample of the loaded window and the four waterfall
	// sections; 32 bytes per span.
	tr := newTracer(loadSampleSpans + 4*waterfallSpans)
	traced, err := runRep(w, seed, 0, window, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: traced repetition: %w", w.name, err)
	}
	rep.add(traced)

	values := make(map[string][]float64)
	for k, v := range plain.clientSplit() {
		values[k] = []float64{v}
	}
	for k, v := range traced.perLayer() {
		values[k] = []float64{v}
	}
	values["trace.overhead_ratio"] = []float64{
		1 - traced.endToEnd()["ops_per_s"]/plain.endToEnd()["ops_per_s"]}
	if rep.PerLayer, err = pick(m.PerLayer, values); err != nil {
		return nil, err
	}
	if rep.TraceFile, err = writeTrace(tr, m.outDir(), w.name); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	return rep, nil
}

// ---------------------------------------------------------------------------
// Commands
// ---------------------------------------------------------------------------

type commonFlags struct {
	seed    uint64
	seconds float64
	reps    int
}

func (c *commonFlags) register(fs *flag.FlagSet, m *manifest) {
	fs.Uint64Var(&c.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&c.seconds, "seconds", float64(m.RunSeconds), "measured seconds per run, all repetitions together")
	fs.IntVar(&c.reps, "reps", defaultReps, "repetitions per run (fresh store each); metrics are their medians")
}

func (c *commonFlags) validate() error {
	if c.seconds <= 0 || c.reps < 1 {
		return errors.New("--seconds must be positive and --reps at least 1")
	}
	return nil
}

// contractMain is the driver's interface: one run, one result line.
func contractMain(m *manifest, args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var c commonFlags
	c.register(fs, m)
	name := fs.String("workload", "", "workload name")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := c.validate(); err != nil {
		return err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	var rep *workloadReport
	var metrics map[string]stat
	switch *trace {
	case 0:
		if rep, err = measure(m, w, c.seed, c.seconds, c.reps); err != nil {
			return err
		}
		metrics = rep.EndToEnd
	case 1:
		if rep, err = traceRun(m, w, c.seed, c.seconds); err != nil {
			return err
		}
		metrics = rep.PerLayer
	default:
		return errors.New("--trace must be 0 or 1")
	}
	if rep.FirstErr != "" {
		fmt.Fprintln(os.Stderr, "first failure:", rep.FirstErr)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, make(map[string]value, len(metrics))}
	for k, s := range metrics {
		out.Metrics[k] = value{s.Value, s.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return fmt.Errorf("%d of %d operations failed", rep.Failed, rep.Attempted)
	}
	return nil
}

// document is the report of run and all.
type document struct {
	Seed      uint64                     `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Reps      int                        `json:"reps"`
	Env       environment                `json:"env"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

type environment struct {
	NProc   int    `json:"nproc"`
	Clients int    `json:"clients"`
	Go      string `json:"go"`
	CPU     string `json:"cpu"`
}

func currentEnv() environment {
	env := environment{NProc: runtime.NumCPU(), Clients: numClients, Go: runtime.Version(), CPU: "unknown"}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// runMain implements run: one workload measured in this process, the
// traced run too with --trace, printed as one JSON document.
func runMain(m *manifest, args []string) error {
	fs := flag.NewFlagSet("benchmark run", flag.ContinueOnError)
	var c commonFlags
	c.register(fs, m)
	name := fs.String("workload", "", "workload name")
	traced := fs.Bool("trace", false, "also make the traced run and report the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := c.validate(); err != nil {
		return err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	rep, err := measure(m, w, c.seed, c.seconds, c.reps)
	if err != nil {
		return err
	}
	if *traced {
		tr, err := traceRun(m, w, c.seed, c.seconds)
		if err != nil {
			return err
		}
		rep.PerLayer, rep.TraceFile = tr.PerLayer, tr.TraceFile
		rep.Attempted += tr.Attempted
		rep.Failed += tr.Failed
		if rep.FirstErr == "" {
			rep.FirstErr = tr.FirstErr
		}
		rep.Correct = rep.Failed == 0
	}
	doc := c.document()
	doc.Workloads[w.name] = rep
	return doc.print()
}

func (c *commonFlags) document() *document {
	return &document{Seed: c.seed, Seconds: c.seconds, Reps: c.reps, Env: currentEnv(),
		Workloads: make(map[string]*workloadReport)}
}

// print writes the document and fails if any workload had a failure.
func (d *document) print() error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		return err
	}
	for name, rep := range d.Workloads {
		if !rep.Correct {
			return fmt.Errorf("%s: wrong values, errors or audit misses: %s", name, rep.FirstErr)
		}
	}
	return nil
}

// runChild measures one workload in a process of its own, as the pipeline
// does: peak RSS, heap and GC state then belong to that workload alone.
func (c *commonFlags) runChild(name string, traced bool) (*workloadReport, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"run", "--workload", name,
		"--seed", strconv.FormatUint(c.seed, 10),
		"--seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64),
		"--reps", strconv.Itoa(c.reps)}
	if traced {
		args = append(args, "--trace")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	var doc document
	if err := json.Unmarshal(out, &doc); err != nil || doc.Workloads[name] == nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", name, runErr)
		}
		return nil, fmt.Errorf("%s: unreadable report from the child process", name)
	}
	return doc.Workloads[name], nil // a report with failures carries them itself
}

// allMain implements all: every workload, traced run included, one
// process each, merged into one JSON document.
func allMain(m *manifest, args []string) error {
	fs := flag.NewFlagSet("benchmark all", flag.ContinueOnError)
	var c commonFlags
	c.register(fs, m)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := c.validate(); err != nil {
		return err
	}
	doc := c.document()
	for _, wl := range m.Workloads {
		rep, err := c.runChild(wl.Name, true)
		if err != nil {
			return err
		}
		doc.Workloads[wl.Name] = rep
	}
	return doc.print()
}

// checkMain runs two full sets back to back, one process per workload and
// set, and fails if any end-to-end metric of the second set is worse than
// the first by more than its bound.
func checkMain(m *manifest, args []string) error {
	fs := flag.NewFlagSet("benchmark check", flag.ContinueOnError)
	var c commonFlags
	c.register(fs, m)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := c.validate(); err != nil {
		return err
	}
	var sets [2]map[string]*workloadReport
	for i := range sets {
		sets[i] = make(map[string]*workloadReport)
		for _, wl := range m.Workloads {
			rep, err := c.runChild(wl.Name, false)
			if err != nil {
				return err
			}
			sets[i][wl.Name] = rep
		}
	}
	env := currentEnv()
	fmt.Printf("seed %d, %g s per run in %d repetitions, %d clients; %s, nproc %d, %s\n\n",
		c.seed, c.seconds, c.reps, numClients, env.CPU, env.NProc, env.Go)
	fmt.Println("| workload | metric | unit | set 1 | set 2 | worse by | bound | |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	bad := 0
	for _, wl := range m.Workloads {
		a, b := sets[0][wl.Name], sets[1][wl.Name]
		for _, d := range m.EndToEnd {
			va, vb := a.EndToEnd[d.Name].Value, b.EndToEnd[d.Name].Value
			// The second set is judged against the first, as a later
			// change would be: positive = worse.
			worse := (vb - va) / va
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > d.Bound {
				verdict = "FAIL"
				bad++
			}
			fmt.Printf("| %s | %s | %s | %.4g | %.4g | %+.1f%% | %.0f%% | %s |\n",
				wl.Name, d.Name, d.Unit, va, vb, 100*worse, 100*d.Bound, verdict)
		}
		if a.Failed+b.Failed > 0 {
			fmt.Printf("| %s | failed | count | %d | %d | | 0 | FAIL |\n", wl.Name, a.Failed, b.Failed)
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric x workload pairs outside their bounds", bad)
	}
	return nil
}

func main() {
	m, err := loadManifest()
	if err == nil {
		args := os.Args[1:]
		switch {
		case len(args) > 0 && args[0] == "run":
			err = runMain(m, args[1:])
		case len(args) > 0 && args[0] == "all":
			err = allMain(m, args[1:])
		case len(args) > 0 && args[0] == "check":
			err = checkMain(m, args[1:])
		default:
			err = contractMain(m, args)
		}
	}
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
		}
		os.Exit(1)
	}
}
