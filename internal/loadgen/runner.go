package loadgen

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"p2kvs/internal/core"
	"p2kvs/internal/histogram"
	"p2kvs/internal/kv"
)

// Outcome classifies one completed operation. Every load driver — the
// embedded one reading kv errors and the wire one reading RESP error
// replies — reports in these terms.
type Outcome int

const (
	// OK: the operation was applied or answered (a miss is an answer).
	OK Outcome = iota
	// LoadShed: admission control refused the request; it never ran.
	LoadShed
	// Timeout: the request's deadline passed before it reached the engine.
	Timeout
	// Corruption: the store refused to serve damaged data — the loud,
	// contractual answer. Counted under -verify, fatal otherwise.
	Corruption
	// Failed: any other error; fatal to the run.
	Failed
)

// Classify maps a store error to its Outcome.
func Classify(err error) Outcome {
	switch {
	case err == nil, errors.Is(err, kv.ErrNotFound):
		return OK
	case errors.Is(err, kv.ErrOverloaded):
		return LoadShed
	case errors.Is(err, kv.ErrDeadlineExceeded):
		return Timeout
	case errors.Is(err, kv.ErrCorruption):
		return Corruption
	}
	return Failed
}

// ClassifyReply maps a RESP error reply's text to its Outcome.
func ClassifyReply(msg string) Outcome {
	switch {
	case strings.HasPrefix(msg, "LOADSHED"):
		return LoadShed
	case strings.HasPrefix(msg, "TIMEOUT"):
		return Timeout
	case strings.HasPrefix(msg, "CORRUPTION"):
		return Corruption
	}
	return Failed
}

// Verifier is the paranoid-read mode (-verify): every read hit is
// checked against the value codec. A Corruption outcome is the store
// refusing to lie and is merely counted; a value that fails Verify is a
// silent lie and fails the whole run.
type Verifier struct {
	reads, corruptions, mismatches atomic.Int64
}

// Check verifies one read hit for key index i.
func (v *Verifier) Check(i uint64, got []byte) {
	if v == nil {
		return
	}
	v.reads.Add(1)
	if _, err := Verify(i, got, 0, 0); err != nil {
		v.mismatches.Add(1)
	}
}

// Report prints the tally and reports whether the run stays green (no
// silent mismatch).
func (v *Verifier) Report(w io.Writer) bool {
	fmt.Fprintf(w, "corruption     : %d reads verified; %d corruption errors (loud); %d silent mismatches\n",
		v.reads.Load(), v.corruptions.Load(), v.mismatches.Load())
	return v.mismatches.Load() == 0
}

// Tally accumulates one phase's outcomes and window latencies.
type Tally struct {
	Ops, Hits                  atomic.Int64
	LoadShed, Timeouts, Errors atomic.Int64
	Lat                        histogram.H
	v                          *Verifier
}

// Count records one operation's outcome and reports whether the run may
// continue: Failed never may, Corruption only under a Verifier.
func (t *Tally) Count(o Outcome) bool {
	switch o {
	case LoadShed:
		t.LoadShed.Add(1)
	case Timeout:
		t.Timeouts.Add(1)
	case Corruption:
		if t.v == nil {
			t.Errors.Add(1)
			return false
		}
		t.v.corruptions.Add(1)
	case Failed:
		t.Errors.Add(1)
		return false
	}
	return true
}

// Hit records a read that found its key, verifying the value under
// -verify.
func (t *Tally) Hit(i uint64, got []byte) {
	t.Hits.Add(1)
	t.v.Check(i, got)
}

// Line renders the phase's report line: throughput, payload bandwidth,
// window-latency quantiles and whatever was dropped.
func (t *Tally) Line(p Phase, elapsed time.Duration) string {
	ops := t.Ops.Load()
	sum := t.Lat.Summary()
	sec := elapsed.Seconds()
	line := fmt.Sprintf("%-14s : %9d ops in %6.2fs; %10.0f ops/sec; %7.1f MB/s; lat(window=%d) p50=%.1fus p95=%.1fus p99=%.1fus max=%.1fus",
		p.Spec.Name, ops, sec, float64(ops)/sec, float64(ops)*float64(p.ValueSize+16)/sec/1e6,
		p.Window, sum.P50Us, sum.P95Us, sum.P99Us, sum.MaxUs)
	if p.Spec.Read+p.Spec.RMW > 0 {
		line += fmt.Sprintf("; hits=%d", t.Hits.Load())
	}
	if ls, to, er := t.LoadShed.Load(), t.Timeouts.Load(), t.Errors.Load(); ls+to+er > 0 {
		line += fmt.Sprintf("; dropped: %d loadshed, %d timeout, %d error", ls, to, er)
	}
	return line
}

// Target executes one window of generated operations, recording each
// one's outcome in t. A returned error aborts the run.
type Target interface {
	Do(ops []Op, t *Tally) error
}

// Phase describes one closed-loop run.
type Phase struct {
	Spec      Spec
	Ops       int // total operations, split evenly over Threads
	Keys      int // loaded key-space size the choosers draw from
	Threads   int
	Window    int // operations handed to Target.Do at once (pipeline depth)
	ValueSize int
	Seed      int64
	Verify    *Verifier // nil: reads are not checked
}

// Run drives p: Threads goroutines, each with its own Target from open
// and its own Generator, issue windows back to back until their share of
// Ops is done. The recorded latency is one window's round trip.
func Run(p Phase, open func(tid int) (Target, error)) (*Tally, time.Duration, error) {
	perThread := max(p.Ops/p.Threads, 1)
	window := max(p.Window, 1)
	t := &Tally{v: p.Verify}
	frontier := NewFrontier(uint64(p.Keys))
	errs := make([]error, p.Threads)
	var wg sync.WaitGroup
	start := time.Now()
	for tid := 0; tid < p.Threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			target, err := open(tid)
			if err != nil {
				errs[tid] = err
				return
			}
			if c, ok := target.(io.Closer); ok {
				defer c.Close()
			}
			gen := NewGenerator(p.Spec, uint64(p.Keys), frontier, p.Seed+int64(tid)+1)
			ops := make([]Op, 0, window)
			for done := 0; done < perThread; done += len(ops) {
				ops = ops[:min(window, perThread-done)]
				for i := range ops {
					ops[i] = gen.Next()
				}
				opStart := time.Now()
				err := target.Do(ops, t)
				t.Lat.Record(time.Since(opStart))
				t.Ops.Add(int64(len(ops)))
				if err != nil {
					errs[tid] = err
					return
				}
			}
		}(tid)
	}
	wg.Wait()
	return t, time.Since(start), errors.Join(errs...)
}

// KV is what Exec needs from a system under test. Scans use a native
// Scan(start, n) when the system has one and fall back to NewIterator.
type KV interface {
	Put(key, value []byte) error
	Get(key []byte) ([]byte, error)
}

// Exec applies one generated operation to s with the codec's values and
// returns the store's error (kv.ErrNotFound on a read miss included).
// scanSize is the scan length when the op carries none; hit, when
// non-nil, observes every value a read found.
func Exec(s KV, op Op, valueSize, scanSize int, hit func(i uint64, got []byte)) error {
	key := Key(op.KeyIdx)
	switch op.Type {
	case OpInsert, OpUpdate:
		return s.Put(key, Value(op.KeyIdx, 0, valueSize))
	case OpScan:
		if op.ScanLen > 0 {
			scanSize = op.ScanLen
		}
		return scan(s, key, scanSize)
	}
	got, err := s.Get(key)
	if err == nil && hit != nil {
		hit(op.KeyIdx, got)
	}
	if op.Type == OpRMW && (err == nil || errors.Is(err, kv.ErrNotFound)) {
		return s.Put(key, Value(op.KeyIdx, 0, valueSize))
	}
	return err
}

func scan(s KV, start []byte, n int) error {
	switch sc := s.(type) {
	case interface {
		Scan(start []byte, n int) ([]core.Pair, error)
	}:
		_, err := sc.Scan(start, n)
		return err
	case interface {
		NewIterator() (kv.Iterator, error)
	}:
		it, err := sc.NewIterator()
		if err != nil {
			return err
		}
		defer it.Close()
		for it.Seek(start); it.Valid() && n > 0; it.Next() {
			n--
		}
		return it.Error()
	}
	return fmt.Errorf("loadgen: %T can neither Scan nor iterate", s)
}

// Preload writes keys [0, n) with the codec's values — in 512-op batches
// when the system takes them — and flushes, so later reads reach files. A
// batch is not a transaction: a core store commits it per partition
// (WriteEachCtx), and the first failed op's error is the batch's.
func Preload(s KV, n, valueSize int) error {
	bw, batched := s.(kv.BatchWriter)
	write := func(b *kv.Batch) error { return bw.Write(b) }
	if st, ok := s.(*core.Store); ok {
		errs := make([]error, 512)
		write = func(b *kv.Batch) error {
			st.WriteEachCtx(context.TODO(), b, errs)
			for _, err := range errs[:b.Len()] {
				if err != nil {
					return err
				}
			}
			return nil
		}
	}
	var b kv.Batch
	for i := 0; i < n; i++ {
		k, v := Key(uint64(i)), Value(uint64(i), 0, valueSize)
		if !batched {
			if err := s.Put(k, v); err != nil {
				return err
			}
			continue
		}
		b.Put(k, v)
		if b.Len() == 512 || i == n-1 {
			if err := write(&b); err != nil {
				return err
			}
			b.Reset()
		}
	}
	if f, ok := s.(interface{ Flush() error }); ok {
		return f.Flush()
	}
	return nil
}

// EmitBench prints the one-line machine-readable result scripts grep
// for: BENCH {"benchmark":name,"k1":v1,…}, fields in the order given.
func EmitBench(w io.Writer, name string, fields ...any) {
	var b strings.Builder
	fmt.Fprintf(&b, `BENCH {"benchmark":%q`, name)
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := json.Marshal(fields[i+1])
		if err != nil {
			panic("loadgen: BENCH field does not marshal: " + err.Error())
		}
		fmt.Fprintf(&b, ",%q:%s", fields[i], v)
	}
	fmt.Fprintln(w, b.String()+"}")
}
