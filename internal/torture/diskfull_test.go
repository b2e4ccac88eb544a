package torture

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"p2kvs/internal/kv"
	"p2kvs/internal/vfs"
)

// TestDiskFullTorture drives every engine family through repeated
// disk-full episodes on a QuotaFS. What one episode does to an engine — the
// typed error, the single auto-resume, the goroutines — is the guard case of
// internal/kv/kvtest; this is what only repetition shows, the shadow model
// holding across rounds:
//
//	healthy writes → budget shrunk to current usage → engine degrades to
//	read-only (reads still serving the shadow model) → budget grows → the
//	space watchdog auto-resumes with no Resume call from the test → all
//	keys verify against the model.
//
// Failed writes admit ambiguity exactly as in the main torture run: a
// put that failed mid-episode may or may not have reached the journal,
// so the key legally holds either value afterwards.
func TestDiskFullTorture(t *testing.T) {
	rounds := 4
	if testing.Short() {
		rounds = 2
	}
	for _, cfg := range pick("lsm-rocksdb", "btreekv", "kvell") {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			t.Parallel()
			diskFullTorture(t, cfg, rounds)
		})
	}
}

func diskFullTorture(t *testing.T, cfg family, rounds int) {
	qfs := vfs.NewQuota(vfs.NewMem(), -1)
	eng, err := cfg.open(qfs, "db", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	hr := eng.(kv.HealthReporter)

	shadow := newModel()
	seq := 0
	// nextKey returns a fresh, never-written key: new keys force file
	// extension on every engine, so the shrunken budget always bites.
	nextKey := func() string {
		seq++
		return fmt.Sprintf("df-%06d", seq)
	}
	put := func(k, v string) error {
		if _, ok := shadow.sets[k]; !ok {
			shadow.collapse(k, absent)
		}
		err := eng.Put([]byte(k), []byte(v))
		if err != nil {
			shadow.admit(k, v)
		} else {
			shadow.collapse(k, v)
		}
		return err
	}
	// verify checks every key the run has touched against the shadow
	// model and collapses the ambiguity to the observed value. degraded
	// says whether a Get error other than ErrNotFound is acceptable —
	// it never is: reads must serve in every state.
	verify := func(phase string) {
		for k, possible := range shadow.sets {
			v, err := eng.Get([]byte(k))
			switch {
			case errors.Is(err, kv.ErrNotFound):
				if !possible[absent] {
					t.Fatalf("%s: Get(%s) = not-found, but absent is impossible (possible %v)", phase, k, possible)
				}
				shadow.collapse(k, absent)
			case err != nil:
				t.Fatalf("%s: Get(%s) failed — reads must serve in every state: %v", phase, k, err)
			case !possible[string(v)]:
				t.Fatalf("%s: Get(%s) = %q, outside possibility set %v", phase, k, v, possible)
			default:
				shadow.collapse(k, string(v))
			}
		}
	}

	val := func(round, i int) string { return fmt.Sprintf("r%02d-%04d-%s", round, i, string(make([]byte, 200))) }

	for round := 0; round < rounds; round++ {
		// Phase 1: healthy writes with the budget open.
		for i := 0; i < 60; i++ {
			if err := put(nextKey(), val(round, i)); err != nil {
				t.Fatalf("round %d: healthy put failed: %v", round, err)
			}
		}
		verify(fmt.Sprintf("round %d healthy", round))

		// Phase 2: the device fills — shrink the budget to exactly what
		// is used, so the next extension hits ENOSPC. Keep writing until
		// the engine settles into disk-full read-only mode; each failed
		// put admits ambiguity for its key.
		qfs.SetBudget(qfs.Used())
		deadline := time.Now().Add(10 * time.Second)
		for {
			_ = put(nextKey(), val(round, -1))
			if h := hr.Health(); h.State == kv.StateReadOnly && h.DiskFull {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d: engine never entered disk-full read-only mode: %+v", round, hr.Health())
			}
			time.Sleep(time.Millisecond)
		}
		// Reads keep serving everything the model says is there.
		verify(fmt.Sprintf("round %d degraded", round))
		if h := hr.Health(); h.DiskFullEvents < int64(round+1) {
			t.Fatalf("round %d: DiskFullEvents = %d, want >= %d", round, h.DiskFullEvents, round+1)
		}

		// Phase 3: space comes back; the watchdog must resume writes on
		// its own — the test never calls Resume.
		qfs.SetBudget(-1)
		deadline = time.Now().Add(10 * time.Second)
		for {
			if err := put(nextKey(), val(round, -2)); err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d: writes never resumed after space freed: %+v", round, hr.Health())
			}
			time.Sleep(5 * time.Millisecond)
		}
		if h := hr.Health(); h.AutoResumes < int64(round+1) {
			t.Fatalf("round %d: AutoResumes = %d, want >= %d", round, h.AutoResumes, round+1)
		}
		verify(fmt.Sprintf("round %d resumed", round))
	}
}
