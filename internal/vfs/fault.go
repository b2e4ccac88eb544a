package vfs

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// FaultFS is a composable fault-injection wrapper over any FS. Tests and
// torture harnesses layer it between an engine and its backing filesystem
// (MemFS or OSFS) and script faults against the real IO stream: error out
// the Nth sync, tear a write so only a prefix persists, flip a bit in a
// read, or add latency — without the engine knowing anything beyond "the
// disk misbehaved". Every engine in this repository takes a vfs.FS, so
// every engine can be tortured identically.
//
// Faults are described by Rules. A Rule matches an operation class
// (optionally narrowed by a path substring), decides when to fire (every
// matching op, the Nth matching op, or probabilistically), and carries an
// action. Rules are evaluated in insertion order; the first rule that
// fires wins for error-type actions, while delay and bit-flip actions
// accumulate.
type FaultFS struct {
	inner FS

	mu    sync.Mutex
	rules []*activeRule
	rng   *rand.Rand

	injected atomic.Int64
}

// ErrInjected is the base error of every fault FaultFS injects; injected
// errors satisfy errors.Is(err, ErrInjected), which recovery code can use
// to recognize (in tests) synthetic transient failures.
var ErrInjected = errors.New("vfs: injected fault")

// InjectedFaults returns the number of faults fs has fired so far, 0 for a
// filesystem that injects none; engines surface it in their Health.
func InjectedFaults(fs FS) int64 {
	if f, ok := fs.(interface{ InjectedFaults() int64 }); ok {
		return f.InjectedFaults()
	}
	return 0
}

// Op identifies a filesystem operation class for fault matching.
type Op int

// Operation classes.
const (
	// OpAny matches every operation.
	OpAny Op = iota
	OpCreate
	OpOpen
	OpRemove
	OpRename
	OpList
	OpMkdirAll
	// OpWrite matches both appending Write and WriteAt.
	OpWrite
	OpRead
	OpSync
	OpLink
)

func (o Op) String() string {
	switch o {
	case OpAny:
		return "any"
	case OpCreate:
		return "create"
	case OpOpen:
		return "open"
	case OpRemove:
		return "remove"
	case OpRename:
		return "rename"
	case OpList:
		return "list"
	case OpMkdirAll:
		return "mkdirall"
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	case OpSync:
		return "sync"
	case OpLink:
		return "link"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Rule scripts one fault behavior.
type Rule struct {
	// Op is the operation class the rule matches; OpAny matches all.
	Op Op
	// Path, when non-empty, narrows the match to operations whose file
	// path contains it (Rename matches on either name).
	Path string

	// CountN, when > 0, makes the rule fire only on the Nth matching
	// operation (1-based), counting from when the rule was installed.
	CountN int64
	// Prob, when > 0, makes the rule fire on each matching operation with
	// this probability (0..1). CountN and Prob are mutually exclusive;
	// with neither set the rule fires on every matching operation.
	Prob float64
	// OneShot disarms the rule after its first firing.
	OneShot bool

	// Err is the error returned by error-type firings; nil means a
	// generic error wrapping ErrInjected. Ignored by pure BitFlip/Delay
	// rules.
	Err error
	// NoSpace makes error-type firings report space exhaustion: the
	// injected error matches both ErrInjected and ErrNoSpace (IsNoSpace
	// returns true for it), so torture configs can exercise the engines'
	// disk-full degradation without layering a QuotaFS. Ignored when Err
	// is set explicitly.
	NoSpace bool
	// TornWrite, on a write operation, persists only a prefix of the
	// buffer (half, rounded down) before failing — a torn write. Without
	// it a firing write rule fails without persisting anything.
	TornWrite bool
	// BitFlip flips one bit and reports success — silent corruption. On a
	// read operation the flip lands in the returned buffer (the stored
	// bytes stay intact); on a write operation the flip lands in the bytes
	// persisted (corruption at rest: every later read of that range sees
	// the damage). A rule with BitFlip set never returns an error.
	BitFlip bool
	// Delay adds latency before the operation proceeds. A rule with only
	// Delay set (no Err semantics, no BitFlip) slows the op down but lets
	// it succeed.
	DelayOnly bool
	Delay     time.Duration
}

type activeRule struct {
	Rule
	seen  int64 // matching ops observed since installation
	fired bool  // OneShot rules disarm after firing
}

// NewFault wraps inner with an (initially fault-free) injection layer,
// seeded deterministically.
func NewFault(inner FS) *FaultFS { return NewFaultSeeded(inner, 1) }

// NewFaultSeeded wraps inner with the probabilistic trigger RNG seeded
// explicitly, for reproducible torture runs.
func NewFaultSeeded(inner FS, seed int64) *FaultFS {
	return &FaultFS{inner: inner, rng: rand.New(rand.NewSource(seed))}
}

// Inner returns the wrapped filesystem.
func (f *FaultFS) Inner() FS { return f.inner }

// Inject installs a rule. Rules accumulate until ClearRules.
func (f *FaultFS) Inject(r Rule) {
	f.mu.Lock()
	f.rules = append(f.rules, &activeRule{Rule: r})
	f.mu.Unlock()
}

// FailNextSync arms a one-shot error on the next Sync of any file — the
// drop-in replacement for the old MemFS switch.
func (f *FaultFS) FailNextSync() {
	f.Inject(Rule{Op: OpSync, CountN: 1, OneShot: true})
}

// ClearRules removes every installed rule (fault counters are kept).
func (f *FaultFS) ClearRules() {
	f.mu.Lock()
	f.rules = nil
	f.mu.Unlock()
}

// InjectedFaults returns the number of faults fired so far.
func (f *FaultFS) InjectedFaults() int64 { return f.injected.Load() }

// CorruptAt deterministically corrupts data at rest: it XORs the lowest
// bit of the byte at the absolute offset off within the named file's
// current content, in place, reporting success to nobody — the next read
// covering that byte sees the damage. Unlike a BitFlip rule there is no
// randomness and no dependence on IO timing, so a test can hit a specific
// block of a specific file reproducibly. The underlying FS must support
// writable opens (MemFS does; OSFS's Open is read-only).
func (f *FaultFS) CorruptAt(name string, off int64) error {
	file, err := f.inner.Open(name)
	if err != nil {
		return err
	}
	defer file.Close()
	size, err := file.Size()
	if err != nil {
		return err
	}
	if off < 0 || off >= size {
		return fmt.Errorf("vfs: CorruptAt(%s, %d): offset outside file of %d bytes", name, off, size)
	}
	var b [1]byte
	if _, err := file.ReadAt(b[:], off); err != nil {
		return err
	}
	b[0] ^= 0x01
	if _, err := file.WriteAt(b[:], off); err != nil {
		return err
	}
	f.injected.Add(1)
	return nil
}

// decision is the aggregate outcome of rule evaluation for one operation.
type decision struct {
	err     error
	torn    bool
	bitFlip bool
	delay   time.Duration
}

func (f *FaultFS) check(op Op, path string) decision {
	var d decision
	f.mu.Lock()
	for _, r := range f.rules {
		if r.fired && r.OneShot {
			continue
		}
		if r.Op != OpAny && r.Op != op {
			continue
		}
		if r.Path != "" && !strings.Contains(path, r.Path) {
			continue
		}
		r.seen++
		switch {
		case r.CountN > 0:
			if r.seen != r.CountN {
				continue
			}
		case r.Prob > 0:
			if f.rng.Float64() >= r.Prob {
				continue
			}
		}
		r.fired = true
		f.injected.Add(1)
		if r.Delay > 0 {
			d.delay += r.Delay
		}
		if r.DelayOnly {
			continue
		}
		if r.BitFlip {
			d.bitFlip = true
			continue
		}
		if d.err == nil {
			d.err = r.Err
			switch {
			case d.err != nil:
			case r.NoSpace:
				d.err = fmt.Errorf("%w: %w: %s %s", ErrInjected, ErrNoSpace, op, path)
			default:
				d.err = fmt.Errorf("%w: %s %s", ErrInjected, op, path)
			}
			d.torn = r.TornWrite
		}
	}
	f.mu.Unlock()
	if d.delay > 0 {
		time.Sleep(d.delay)
	}
	return d
}

// Create implements FS.
func (f *FaultFS) Create(name string) (File, error) {
	if d := f.check(OpCreate, name); d.err != nil {
		return nil, d.err
	}
	file, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: file, path: name}, nil
}

// Open implements FS.
func (f *FaultFS) Open(name string) (File, error) {
	if d := f.check(OpOpen, name); d.err != nil {
		return nil, d.err
	}
	file, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: file, path: name}, nil
}

// Remove implements FS.
func (f *FaultFS) Remove(name string) error {
	if d := f.check(OpRemove, name); d.err != nil {
		return d.err
	}
	return f.inner.Remove(name)
}

// Rename implements FS.
func (f *FaultFS) Rename(oldname, newname string) error {
	if d := f.check(OpRename, oldname+" -> "+newname); d.err != nil {
		return d.err
	}
	return f.inner.Rename(oldname, newname)
}

// List implements FS.
func (f *FaultFS) List(dir string) ([]string, error) {
	if d := f.check(OpList, dir); d.err != nil {
		return nil, d.err
	}
	return f.inner.List(dir)
}

// MkdirAll implements FS.
func (f *FaultFS) MkdirAll(dir string) error {
	if d := f.check(OpMkdirAll, dir); d.err != nil {
		return d.err
	}
	return f.inner.MkdirAll(dir)
}

// Exists implements FS.
func (f *FaultFS) Exists(name string) bool { return f.inner.Exists(name) }

// Link implements FS.
func (f *FaultFS) Link(oldname, newname string) error {
	if d := f.check(OpLink, oldname+" -> "+newname); d.err != nil {
		return d.err
	}
	return f.inner.Link(oldname, newname)
}

type faultFile struct {
	fs    *FaultFS
	inner File
	path  string
}

func (f *faultFile) Write(p []byte) (int, error) {
	d := f.fs.check(OpWrite, f.path)
	if d.err != nil {
		if d.torn && len(p) > 0 {
			n, _ := f.inner.Write(p[:len(p)/2])
			return n, d.err
		}
		return 0, d.err
	}
	if d.bitFlip && len(p) > 0 {
		// Corrupt the bytes as persisted: the caller's buffer stays
		// intact, the success report stays intact, the disk lies.
		return f.inner.Write(f.fs.flipCopy(p))
	}
	return f.inner.Write(p)
}

func (f *faultFile) WriteAt(p []byte, off int64) (int, error) {
	d := f.fs.check(OpWrite, f.path)
	if d.err != nil {
		if d.torn && len(p) > 0 {
			n, _ := f.inner.WriteAt(p[:len(p)/2], off)
			return n, d.err
		}
		return 0, d.err
	}
	if d.bitFlip && len(p) > 0 {
		return f.inner.WriteAt(f.fs.flipCopy(p), off)
	}
	return f.inner.WriteAt(p, off)
}

// flipCopy returns a copy of p with one random bit flipped.
func (f *FaultFS) flipCopy(p []byte) []byte {
	c := append([]byte(nil), p...)
	f.mu.Lock()
	i := f.rng.Intn(len(c))
	bit := uint(f.rng.Intn(8))
	f.mu.Unlock()
	c[i] ^= 1 << bit
	return c
}

func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	d := f.fs.check(OpRead, f.path)
	if d.err != nil {
		return 0, d.err
	}
	n, err := f.inner.ReadAt(p, off)
	if d.bitFlip && n > 0 {
		f.fs.mu.Lock()
		i := f.fs.rng.Intn(n)
		bit := uint(f.fs.rng.Intn(8))
		f.fs.mu.Unlock()
		p[i] ^= 1 << bit
	}
	return n, err
}

func (f *faultFile) Sync() error {
	if d := f.fs.check(OpSync, f.path); d.err != nil {
		return d.err
	}
	return f.inner.Sync()
}

func (f *faultFile) Size() (int64, error) { return f.inner.Size() }
func (f *faultFile) Close() error         { return f.inner.Close() }
