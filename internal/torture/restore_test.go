package torture

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"p2kvs/internal/checkpoint"
	"p2kvs/internal/core"
	"p2kvs/internal/kv"
	"p2kvs/internal/vfs"
)

// The restore-equivalence dimension: a store run under fault injection
// and crash cycles is periodically checkpointed; every checkpoint must
// restore — into a completely fresh filesystem — to a store whose ordered
// dump is byte-identical to the live store's dump at barrier time, and
// that dump must itself be consistent with the shadow model. One cycle
// per run also fails a checkpoint partway through (fault-injected backup
// IO, then a crash): the live store and the previous backup generation
// must both survive the wreck.

func TestRestoreEquivalenceTorture(t *testing.T) {
	nOps := 1200
	if testing.Short() {
		nOps = 600
	}
	for _, cfg := range families {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			t.Parallel()
			restoreTorture(t, cfg, nOps, 0xBAC0+int64(len(cfg.name)))
		})
	}
}

func restoreTorture(t *testing.T, cfg family, nOps int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	mem := vfs.NewMem()
	ffs := vfs.NewFaultSeeded(mem, seed)

	open := func() (*core.Store, error) {
		opts := core.DefaultOptions(cfg.factory(ffs, "st"))
		opts.Workers = 3
		opts.TxnFS = ffs
		opts.TxnDir = "st/txn"
		opts.EngineName = cfg.name
		return core.Open(opts)
	}
	s, err := open()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()

	const poolSize = 120
	pool := make([]string, poolSize)
	for i := range pool {
		pool[i] = fmt.Sprintf("key-%03d", i)
	}
	shadow := newModel(pool...)

	armed := false
	heal := func() {
		ffs.ClearRules()
		armed = false
		if err := s.Resume(); err != nil {
			t.Fatalf("Resume: %v", err)
		}
	}

	// settle makes strict restore-equality checkable: a torn WAL record
	// from a failed write may sit in the live memtable yet legally vanish
	// from a log replay (the write was never acknowledged). Flushing after
	// heal collapses that ambiguity into SSTs, so the checkpoint image and
	// the live store describe the same state.
	settle := func(tag string) {
		heal()
		if err := s.Flush(); err != nil {
			t.Fatalf("%s: Flush: %v", tag, err)
		}
	}

	// dumpLive validates the live ordered dump against the shadow model
	// and collapses every ambiguity to what the store actually holds: once
	// observed, the state can no longer change spontaneously.
	dumpLive := func(tag string) []core.Pair {
		pairs, err := s.Range(nil, []byte("\xff"))
		if err != nil {
			t.Fatalf("%s: Range: %v", tag, err)
		}
		seen := map[string]bool{}
		for _, p := range pairs {
			k, v := string(p.Key), string(p.Value)
			set, known := shadow.sets[k]
			if !known {
				t.Fatalf("%s: dump surfaced unknown key %q", tag, k)
			}
			if !set[v] {
				t.Fatalf("%s: dump value %q for %s not in possibility set %v", tag, v, k, keys(set))
			}
			shadow.observe(k, v)
			seen[k] = true
		}
		for k, set := range shadow.sets {
			if seen[k] {
				continue
			}
			if !set[absent] {
				t.Fatalf("%s: key %s missing from dump but definitely present (set %v)", tag, k, keys(set))
			}
			shadow.collapse(k, absent)
		}
		return pairs
	}

	// verifyRestore materializes bakDir into a brand-new MemFS, opens a
	// store from the image with a fault-free factory, and requires its
	// ordered dump to be byte-identical to want.
	verifyRestore := func(tag, bakDir string, want []core.Pair) {
		dst := vfs.NewMem()
		place := func(worker int, rel string) string {
			if worker < 0 {
				return "st/txn/" + rel
			}
			return fmt.Sprintf("st/inst-%02d/%s", worker, rel)
		}
		if _, err := checkpoint.Restore(mem, bakDir, dst, place); err != nil {
			t.Fatalf("%s: Restore: %v", tag, err)
		}
		ropts := core.DefaultOptions(cfg.factory(dst, "st"))
		ropts.Workers = 3
		ropts.TxnFS = dst
		ropts.TxnDir = "st/txn"
		r, err := core.Open(ropts)
		if err != nil {
			t.Fatalf("%s: open restored image: %v", tag, err)
		}
		defer r.Close()
		got, err := r.Range(nil, []byte("\xff"))
		if err != nil {
			t.Fatalf("%s: restored Range: %v", tag, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: restored dump has %d pairs, live had %d", tag, len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
				t.Fatalf("%s: restored dump diverges at %d: %q=%q vs %q=%q",
					tag, i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
			}
		}
	}

	var lastGood []core.Pair // live dump at the last successful checkpoint
	checkpoints := 0
	crashes := 0
	const cycle = 200 // ops between verification cycles

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
			settle(tag)

			if checkpoints == 2 {
				// Mid-checkpoint wreck: backup IO through the fault layer
				// with every write failing, so the checkpoint dies partway
				// into the set that already holds two good generations.
				ffs.Inject(vfs.Rule{Op: vfs.OpWrite, Prob: 1})
				ffs.Inject(vfs.Rule{Op: vfs.OpCreate, Prob: 1})
				ffs.Inject(vfs.Rule{Op: vfs.OpLink, Prob: 1})
				if _, err := s.Checkpoint(ffs, "bak"); err == nil {
					t.Fatalf("%s: checkpoint with all backup IO failing succeeded", tag)
				}
				heal()
				if cfg.crash {
					mem.Crash()
					_ = s.Close()
					mem.Restart()
					if s, err = open(); err != nil {
						t.Fatalf("%s: reopen after mid-checkpoint crash: %v", tag, err)
					}
					shadow.recovered()
					crashes++
				}
				// The live store keeps serving...
				if err := s.Put([]byte(pool[0]), []byte("post-wreck")); err == nil {
					shadow.collapse(pool[0], "post-wreck")
				} else {
					shadow.admit(pool[0], "post-wreck")
				}
				// ...and the previous backup generation is untouched.
				verifyRestore(tag+"/prev-generation", "bak", lastGood)
				checkpoints++ // consume the wreck slot so it runs once
				continue
			}

			if cfg.crash && checkpoints == 1 {
				mem.Crash()
				_ = s.Close()
				mem.Restart()
				if s, err = open(); err != nil {
					t.Fatalf("%s: reopen after crash: %v", tag, err)
				}
				shadow.recovered()
				crashes++
			}

			live := dumpLive(tag)
			if _, err := s.Checkpoint(mem, "bak"); err != nil {
				t.Fatalf("%s: Checkpoint: %v", tag, err)
			}
			verifyRestore(tag, "bak", live)
			lastGood = live
			checkpoints++
		}

		k := pool[rng.Intn(poolSize)]
		switch p := rng.Intn(100); {
		case p < 45: // put
			v := fmt.Sprintf("v%06d", i)
			if err := s.Put([]byte(k), []byte(v)); err != nil {
				shadow.admit(k, v)
			} else {
				shadow.collapse(k, v)
			}
		case p < 60: // delete
			if err := s.Delete([]byte(k)); err != nil {
				shadow.admit(k, absent)
			} else {
				shadow.collapse(k, absent)
			}
		case p < 80: // cross-partition transactional batch
			var b kv.Batch
			ks := make([]string, 4)
			vs := make([]string, 4)
			for j := range ks {
				ks[j] = pool[rng.Intn(poolSize)]
				vs[j] = fmt.Sprintf("t%06d-%d", i, j)
				b.Put([]byte(ks[j]), []byte(vs[j]))
			}
			if err := s.Write(&b); err != nil {
				for j := range ks {
					shadow.admitTentative(ks[j], vs[j])
				}
			} else {
				// Later entries in a batch overwrite earlier ones for the
				// same key; collapse in order.
				for j := range ks {
					shadow.collapse(ks[j], vs[j])
				}
			}
		default: // read
			v, err := s.Get([]byte(k))
			switch {
			case err == nil:
				if !shadow.sets[k][string(v)] {
					t.Fatalf("op %d: Get(%s) = %q, not in %v", i, k, v, keys(shadow.sets[k]))
				}
				shadow.observe(k, string(v))
			case err == kv.ErrNotFound:
				if !shadow.sets[k][absent] {
					t.Fatalf("op %d: Get(%s) absent; acked value lost (set %v)", i, k, keys(shadow.sets[k]))
				}
				shadow.collapse(k, absent)
			default:
				// Store-level failures (degraded shard, shed) are legal
				// under injection; ambiguity is already tracked by writes.
			}
		}
	}

	// Final cycle: heal, optional crash, checkpoint, restore, compare.
	heal()
	if cfg.crash {
		mem.Crash()
		_ = s.Close()
		mem.Restart()
		if s, err = open(); err != nil {
			t.Fatalf("final reopen: %v", err)
		}
		shadow.recovered()
		crashes++
	}
	live := dumpLive("final")
	if _, err := s.Checkpoint(mem, "bak"); err != nil {
		t.Fatalf("final Checkpoint: %v", err)
	}
	verifyRestore("final", "bak", live)
	checkpoints++

	t.Logf("%d checkpoints, %d crashes, %d injected faults", checkpoints, crashes, ffs.InjectedFaults())
	if ffs.InjectedFaults() == 0 {
		t.Fatal("no fault ever fired — the torture exercised nothing")
	}
	if checkpoints < 3 {
		t.Fatalf("only %d checkpoint cycles ran", checkpoints)
	}
}
