package torture

import (
	"fmt"
	"math/rand"
	"testing"

	"p2kvs/internal/core"
	"p2kvs/internal/kv"
	"p2kvs/internal/vfs"
)

// The hot-cache coherence dimension: the same shadow-model torture the
// store already survives — fault windows, crash/reopen cycles, ambiguous
// failed writes — but with the hot-key read cache enabled and every read
// going through it. A stale cache entry surfaces in one of two ways, and
// both are test failures:
//
//   - a Get returns a value outside the key's possibility set, or
//     contradicts an earlier collapsed observation;
//   - the byte-equivalence sweep at each settle cycle disagrees: the
//     ordered Range dump reads engine truth (scans bypass the cache),
//     and a per-key Get pass through the cache must match it exactly.
//
// The cache budget is deliberately tiny so eviction, refill and
// invalidation all churn constantly, and reads are skewed at a hot
// subset so hits actually happen.

func TestHotCacheShadowTorture(t *testing.T) {
	nOps := 1600
	if testing.Short() {
		nOps = 800
	}
	for _, cfg := range pick("lsm-rocksdb", "btreekv") {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			t.Parallel()
			hotCacheTorture(t, cfg, nOps, 0xCAC4E+int64(len(cfg.name)))
		})
	}
}

func hotCacheTorture(t *testing.T, cfg family, nOps int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	mem := vfs.NewMem()
	ffs := vfs.NewFaultSeeded(mem, seed)

	open := func() (*core.Store, error) {
		opts := core.DefaultOptions(cfg.factory(ffs, "st"))
		opts.Workers = 3
		opts.TxnFS = ffs
		opts.TxnDir = "st/txn"
		opts.EngineName = cfg.name
		// Tiny budget: eviction pressure is part of the dimension.
		opts.HotCacheBytes = 16 << 10
		return core.Open(opts)
	}
	s, err := open()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()

	const poolSize = 120
	const hotSet = 12 // reads skew here: these keys live in the cache
	pool := make([]string, poolSize)
	for i := range pool {
		pool[i] = fmt.Sprintf("key-%03d", i)
	}
	shadow := newModel(pool...)
	pickKey := func() string {
		if rng.Intn(100) < 60 {
			return pool[rng.Intn(hotSet)]
		}
		return pool[rng.Intn(poolSize)]
	}

	armed := false
	heal := func() {
		ffs.ClearRules()
		armed = false
		if err := s.Resume(); err != nil {
			t.Fatalf("Resume: %v", err)
		}
	}

	// checkRead folds one read observation into the model; stale values
	// and lost acked writes fail here.
	checkRead := func(tag, k string, v []byte, err error) {
		switch {
		case err == nil:
			if !shadow.sets[k][string(v)] {
				t.Fatalf("%s: Get(%s) = %q, not in possibility set %v (stale cache entry?)",
					tag, k, v, keys(shadow.sets[k]))
			}
			shadow.observe(k, string(v))
		case err == kv.ErrNotFound:
			if !shadow.sets[k][absent] {
				t.Fatalf("%s: Get(%s) absent; acked value lost (set %v) (stale negative entry?)",
					tag, k, keys(shadow.sets[k]))
			}
			shadow.collapse(k, absent)
		default:
			// Store-level failures (degraded shard, shed) are legal under
			// injection; ambiguity is already tracked by writes.
		}
	}

	// equivSweep is the byte-equivalence acceptance check: with faults
	// healed and no writes in flight, engine truth (the Range dump, which
	// bypasses the cache) and a per-key cached Get pass must agree on
	// every key, byte for byte.
	equivSweep := func(tag string) {
		pairs, err := s.Range(nil, []byte("\xff"))
		if err != nil {
			t.Fatalf("%s: Range: %v", tag, err)
		}
		live := map[string]string{}
		for _, p := range pairs {
			k, v := string(p.Key), string(p.Value)
			if !shadow.sets[k][v] {
				t.Fatalf("%s: dump value %q for %s not in possibility set %v", tag, v, k, keys(shadow.sets[k]))
			}
			shadow.observe(k, v)
			live[k] = v
		}
		for k, set := range shadow.sets {
			if _, ok := live[k]; ok {
				continue
			}
			if !set[absent] {
				t.Fatalf("%s: key %s missing from dump but definitely present (set %v)", tag, k, keys(set))
			}
			shadow.collapse(k, absent)
		}
		for _, k := range pool {
			v, err := s.Get([]byte(k))
			want, present := live[k]
			switch {
			case err == nil:
				if !present {
					t.Fatalf("%s: cached Get(%s) = %q but engine dump has no such key — stale positive entry", tag, k, v)
				}
				if string(v) != want {
					t.Fatalf("%s: cached Get(%s) = %q, engine dump holds %q — stale cache entry", tag, k, v, want)
				}
			case err == kv.ErrNotFound:
				if present {
					t.Fatalf("%s: cached Get(%s) absent but engine dump holds %q — stale negative entry", tag, k, want)
				}
			default:
				t.Fatalf("%s: healed Get(%s): %v", tag, k, err)
			}
		}
	}

	crashes := 0
	cycles := 0
	const cycle = 200

	for i := 0; i < nOps; i++ {
		switch {
		case !armed && (i/40)%3 == 1:
			for _, r := range cfg.menu {
				ffs.Inject(r)
			}
			armed = true
		case armed && (i/40)%3 != 1:
			heal()
		}

		if i%cycle == cycle-1 {
			tag := fmt.Sprintf("cycle@%d", i)
			heal()
			if cycles%2 == 1 && cfg.crash {
				// Crash and reopen: the cache dies with the process and is
				// rebuilt cold — it must never resurrect pre-crash state.
				// Flush first, like every store-level torture: a torn WAL
				// tail from a healed fault window may legally drop
				// unflushed records at replay; collapsing the memtables
				// into SSTs keeps the crash about the cache, not the WAL.
				if err := s.Flush(); err != nil {
					t.Fatalf("%s: pre-crash Flush: %v", tag, err)
				}
				mem.Crash()
				_ = s.Close()
				mem.Restart()
				if s, err = open(); err != nil {
					t.Fatalf("%s: reopen after crash: %v", tag, err)
				}
				shadow.recovered()
				crashes++
			}
			equivSweep(tag)
			cycles++
		}

		k := pickKey()
		switch p := rng.Intn(100); {
		case p < 30: // put
			v := fmt.Sprintf("v%06d", i)
			if err := s.Put([]byte(k), []byte(v)); err != nil {
				shadow.admit(k, v)
			} else {
				shadow.collapse(k, v)
			}
		case p < 40: // delete
			if err := s.Delete([]byte(k)); err != nil {
				shadow.admit(k, absent)
			} else {
				shadow.collapse(k, absent)
			}
		case p < 50: // cross-partition transactional batch
			var b kv.Batch
			ks := make([]string, 4)
			vs := make([]string, 4)
			for j := range ks {
				ks[j] = pickKey()
				vs[j] = fmt.Sprintf("t%06d-%d", i, j)
				b.Put([]byte(ks[j]), []byte(vs[j]))
			}
			if err := s.Write(&b); err != nil {
				for j := range ks {
					shadow.admitTentative(ks[j], vs[j])
				}
			} else {
				for j := range ks {
					shadow.collapse(ks[j], vs[j])
				}
			}
		case p < 65: // multiget through the cache
			ks := make([][]byte, 4)
			for j := range ks {
				ks[j] = []byte(pickKey())
			}
			out, err := s.MultiGet(ks)
			if err != nil {
				break // legal under injection
			}
			for j, kb := range ks {
				if out[j] == nil {
					checkRead(fmt.Sprintf("op%d/multiget", i), string(kb), nil, kv.ErrNotFound)
				} else {
					checkRead(fmt.Sprintf("op%d/multiget", i), string(kb), out[j], nil)
				}
			}
		default: // read
			v, err := s.Get([]byte(k))
			checkRead(fmt.Sprintf("op%d", i), k, v, err)
		}
	}

	heal()
	equivSweep("final")

	snap := s.StatsSnapshot()
	t.Logf("%d cycles, %d crashes, %d injected faults; cache hits=%d neg=%d misses=%d fills=%d evictions=%d invalidations=%d",
		cycles, crashes, ffs.InjectedFaults(),
		snap.CacheHits, snap.CacheNegHits, snap.CacheMisses, snap.CacheFills, snap.CacheEvictions, snap.CacheInvalidations)
	if ffs.InjectedFaults() == 0 {
		t.Fatal("no fault ever fired — the torture exercised nothing")
	}
	if snap.CacheHits+snap.CacheNegHits == 0 {
		t.Fatal("the cache never served a hit — the torture exercised nothing")
	}
	if snap.CacheInvalidations == 0 {
		t.Fatal("no invalidation ever ran — the torture exercised nothing")
	}
}
