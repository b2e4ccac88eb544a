package torture

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"p2kvs/internal/btreekv"
	"p2kvs/internal/kv"
	"p2kvs/internal/kvell"
	"p2kvs/internal/lsm"
	"p2kvs/internal/vfs"
	"p2kvs/internal/wal"
)

// TestBitFlipAtRestTorture is the at-rest integrity contract, end to end,
// for every engine family: write a known key set, close the engine, flip
// random bits in random durable files, reopen, and check that NO read
// ever returns a silently wrong value — every Get yields the correct
// value, a legitimate not-found, or kv.ErrCorruption. A scrub pass over
// the damaged store must likewise finish without inventing data.
//
// Unlike the fault-menu torture runs there is no write-failure ambiguity:
// every write is acked before the damage, so the model is exact.
func TestBitFlipAtRestTorture(t *testing.T) {
	rounds := 6
	flipsPerRound := 4
	if testing.Short() {
		rounds = 2
	}
	for _, cfg := range bitFlipConfigs() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			t.Parallel()
			bitFlipTorture(t, cfg, rounds, flipsPerRound)
		})
	}
}

type bitFlipCfg struct {
	name string
	open func(fs vfs.FS, dir string) (kv.Engine, error)
	// subdirs are the directories (relative to the instance dir) whose
	// files hold durable state; "" is the instance dir itself. MemFS List
	// is flat, so the walk needs them spelled out.
	subdirs []string
}

func bitFlipConfigs() []bitFlipCfg {
	return []bitFlipCfg{
		{
			name: "lsm-rocksdb",
			open: func(fs vfs.FS, dir string) (kv.Engine, error) {
				o := lsm.RocksDBOptions(fs)
				o.MemTableSize = 16 << 10
				o.BaseLevelSize = 64 << 10
				o.TargetFileSize = 16 << 10
				o.WALSync = wal.PolicyCommit
				return lsm.Open(dir, o)
			},
			subdirs: []string{""},
		},
		{
			name: "btreekv",
			open: func(fs vfs.FS, dir string) (kv.Engine, error) {
				return btreekv.Open(dir, btreekv.Options{FS: fs, WALSync: wal.PolicyCommit, CheckpointBytes: 8 << 10})
			},
			subdirs: []string{""},
		},
		{
			name: "kvell",
			open: func(fs vfs.FS, dir string) (kv.Engine, error) {
				return kvell.Open(dir, kvell.Options{FS: fs, Workers: 2, QueueDepth: 16})
			},
			subdirs: []string{"w00", "w01"},
		},
	}
}

// flipTargets lists every non-empty durable file of the instance.
func flipTargets(t *testing.T, fs *vfs.FaultFS, dir string, subdirs []string) []string {
	t.Helper()
	var out []string
	for _, sub := range subdirs {
		d := dir
		if sub != "" {
			d = dir + "/" + sub
		}
		names, err := fs.List(d)
		if err != nil {
			continue
		}
		for _, n := range names {
			path := d + "/" + n
			f, err := fs.Open(path)
			if err != nil {
				continue
			}
			size, serr := f.Size()
			f.Close()
			if serr == nil && size > 0 {
				out = append(out, path)
			}
		}
	}
	return out
}

func bitFlipTorture(t *testing.T, cfg bitFlipCfg, rounds, flips int) {
	rng := rand.New(rand.NewSource(0x5EED + int64(len(cfg.name))))
	totalCorrupt := 0
	for round := 0; round < rounds; round++ {
		// Each round gets a fresh directory: a previous round may have
		// legitimately poisoned a shard read-only, which would block this
		// round's fill.
		dir := fmt.Sprintf("db-%02d", round)
		fault := vfs.NewFault(vfs.NewMem())
		eng, err := cfg.open(fault, dir)
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[string]string)
		for i := 0; i < 150; i++ {
			k := fmt.Sprintf("key-%03d", i)
			v := fmt.Sprintf("round-%02d-val-%03d-%x", round, i, rng.Int63())
			if err := eng.Put([]byte(k), []byte(v)); err != nil {
				t.Fatalf("round %d: fill put: %v", round, err)
			}
			want[k] = v
		}
		// A few deletes so legitimate not-found answers exist too.
		for i := 0; i < 10; i++ {
			k := fmt.Sprintf("key-%03d", rng.Intn(150))
			if err := eng.Delete([]byte(k)); err != nil {
				t.Fatalf("round %d: delete: %v", round, err)
			}
			delete(want, k)
		}
		if err := eng.Flush(); err != nil {
			t.Fatalf("round %d: flush: %v", round, err)
		}
		if err := eng.Close(); err != nil {
			t.Fatalf("round %d: close: %v", round, err)
		}

		// The rot: random single-bit flips across the durable files.
		targets := flipTargets(t, fault, dir, cfg.subdirs)
		if len(targets) == 0 {
			t.Fatalf("round %d: no durable files to corrupt", round)
		}
		for i := 0; i < flips; i++ {
			path := targets[rng.Intn(len(targets))]
			f, err := fault.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			size, _ := f.Size()
			f.Close()
			if size == 0 {
				continue
			}
			off := rng.Int63n(size)
			if err := fault.CorruptAt(path, off); err != nil {
				t.Fatalf("round %d: CorruptAt(%s): %v", round, path, err)
			}
			t.Logf("round %d: flipped %s @%d (size %d)", round, path, off, size)
		}

		// Recovery must never lie. Two loud outcomes are legal: open
		// degraded (quarantined shards answer ErrCorruption), or refuse
		// to open at all with a corruption report — the LSM takes the
		// latter road when WAL replay meets a rotted committed record
		// (absolute-consistency recovery). Anything else is a bug.
		eng, err = cfg.open(fault, dir)
		if err != nil {
			if errors.Is(err, kv.ErrCorruption) {
				totalCorrupt++
				continue
			}
			t.Fatalf("round %d: reopen after flips: %v", round, err)
		}

		// The core invariant: correct value | correct not-found |
		// ErrCorruption. Anything else is a silent lie.
		corruptReads := 0
		for i := 0; i < 150; i++ {
			k := fmt.Sprintf("key-%03d", i)
			wantV, alive := want[k]
			v, err := eng.Get([]byte(k))
			switch {
			case err == nil:
				if !alive {
					t.Fatalf("round %d: Get(%s) resurrected a deleted key as %q", round, k, v)
				}
				if string(v) != wantV {
					t.Fatalf("round %d: Get(%s) = %q, want %q — SILENTLY WRONG VALUE", round, k, v, wantV)
				}
			case errors.Is(err, kv.ErrNotFound):
				if alive {
					t.Fatalf("round %d: Get(%s) silently lost an acked write", round, k)
				}
			case errors.Is(err, kv.ErrCorruption):
				corruptReads++
			default:
				t.Fatalf("round %d: Get(%s): unexpected error class %v", round, k, err)
			}
		}
		totalCorrupt += corruptReads

		// A scrub over the damaged store must complete (finding corruption
		// is a clean completion) and count consistently with Health.
		if sc, ok := eng.(kv.Scrubber); ok {
			res, err := sc.Scrub(context.Background(), nil)
			if err != nil && !errors.Is(err, kv.ErrCorruption) {
				t.Fatalf("round %d: scrub infra error: %v", round, err)
			}
			if res.CorruptionsFound > 0 {
				if hr, ok := eng.(kv.HealthReporter); ok {
					if h := hr.Health(); h.CorruptionEvents == 0 {
						t.Fatalf("round %d: scrub found %d corruptions but Health reports none", round, res.CorruptionsFound)
					}
				}
			}
		}
		if err := eng.Close(); err != nil {
			t.Fatalf("round %d: close after verify: %v", round, err)
		}
	}
	// Across all rounds the flips must actually have bitten at least once
	// — a sweep that never touches live data proves nothing.
	if totalCorrupt == 0 {
		t.Logf("%s: no flip landed on live data in %d rounds (weak run, not a failure)", cfg.name, rounds)
	} else {
		t.Logf("%s: %d reads correctly failed with ErrCorruption", cfg.name, totalCorrupt)
	}
}
