package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"p2kvs/internal/btreekv"
	"p2kvs/internal/checkpoint"
	"p2kvs/internal/kv"
	"p2kvs/internal/kvell"
	"p2kvs/internal/lsm"
	"p2kvs/internal/vfs"
)

// restoreStore materializes the backup at bakDir into a fresh MemFS laid
// out like openStore's world ("p2/inst-NN", "p2/txn") and opens a store
// from it.
func restoreStore(t *testing.T, srcFS vfs.FS, bakDir string, workers int) *Store {
	t.Helper()
	dst := vfs.NewMem()
	place := func(worker int, rel string) string {
		if worker < 0 {
			return "p2/txn/" + rel
		}
		return fmt.Sprintf("p2/inst-%02d/%s", worker, rel)
	}
	if _, err := checkpoint.Restore(srcFS, bakDir, dst, place); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	return openStore(t, dst, workers)
}

// dump returns every live pair in key order.
func dump(t *testing.T, s *Store) []Pair {
	t.Helper()
	pairs, err := s.Range(nil, []byte("\xff\xff\xff\xff"))
	if err != nil {
		t.Fatalf("Range: %v", err)
	}
	return pairs
}

func samePairs(a, b []Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].Key, b[i].Key) || !bytes.Equal(a[i].Value, b[i].Value) {
			return false
		}
	}
	return true
}

func TestCheckpointRestoreRoundTrip(t *testing.T) {
	fs := vfs.NewMem()
	s := openStore(t, fs, 4)
	defer s.Close()

	for i := 0; i < 800; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Deletes and cross-partition transactions must survive the trip too.
	for i := 0; i < 800; i += 7 {
		if err := s.Delete([]byte(fmt.Sprintf("key-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		var b kv.Batch
		for j := 0; j < 8; j++ {
			b.Put([]byte(fmt.Sprintf("txn-%02d-%d", i, j)), []byte("t"))
		}
		if err := s.Write(&b); err != nil {
			t.Fatal(err)
		}
	}
	want := dump(t, s)

	m, err := s.Checkpoint(fs, "bak")
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if m.Seq != 1 || m.Workers != 4 || len(m.WorkerGSN) != 4 {
		t.Fatalf("manifest shape: %+v", m)
	}
	if m.Partitioner != "hash" {
		t.Fatalf("partitioner = %q", m.Partitioner)
	}

	// Writes after the checkpoint must NOT appear in the restored image.
	if err := s.Put([]byte("post-checkpoint"), []byte("x")); err != nil {
		t.Fatal(err)
	}

	r := restoreStore(t, fs, "bak", 4)
	defer r.Close()
	got := dump(t, r)
	if !samePairs(want, got) {
		t.Fatalf("restored dump differs: want %d pairs, got %d", len(want), len(got))
	}
	if _, err := r.Get([]byte("post-checkpoint")); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("post-checkpoint write leaked into the image: %v", err)
	}
}

func TestCheckpointIncrementalReusesSSTs(t *testing.T) {
	fs := vfs.NewMem()
	s := openStore(t, fs, 2)
	defer s.Close()

	val := bytes.Repeat([]byte("v"), 512)
	for i := 0; i < 400; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key-%04d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Let the compactions the load triggered finish first: one landing
	// between the two checkpoints replaces its inputs, and the second
	// image then shares no SST with the first.
	for i := 0; i < s.Workers(); i++ {
		if err := s.Engine(i).(*lsm.DB).CompactAll(); err != nil {
			t.Fatal(err)
		}
	}
	m1, err := s.Checkpoint(fs, "bak")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := s.Checkpoint(fs, "bak")
	if err != nil {
		t.Fatal(err)
	}
	if m2.Seq != m1.Seq+1 {
		t.Fatalf("seq: %d then %d", m1.Seq, m2.Seq)
	}

	ssts := func(m *checkpoint.Manifest) map[string]bool {
		out := map[string]bool{}
		for _, f := range m.Files {
			if strings.HasSuffix(f.Path, ".sst") {
				out[f.Path] = true
			}
		}
		return out
	}
	s1, s2 := ssts(m1), ssts(m2)
	if len(s1) == 0 {
		t.Fatal("checkpoint 1 captured no SSTs — flush did not land?")
	}
	shared := 0
	for p := range s2 {
		if s1[p] {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no SSTs shared between checkpoints — incremental path untested")
	}

	// Every shared SST must have been reused in place: the workers' reuse
	// counter accounts for each, and no SST bytes were copied twice.
	agg := s.StatsSnapshot().Aggregate
	if agg.FilesReused < int64(shared) {
		t.Fatalf("reused %d files, want at least the %d shared SSTs", agg.FilesReused, shared)
	}
	// On one MemFS the SSTs hard-link, so checkpointing never copies SST
	// bytes at all: only the WAL prefixes and the MANIFESTs are copied.
	if agg.FilesLinked < int64(len(s1)) {
		t.Fatalf("linked %d files, want >= %d initial SSTs", agg.FilesLinked, len(s1))
	}
	// Each worker file of both images is counted once (the TXNLOG is the
	// store's, no worker's).
	files := 0
	for _, m := range []*checkpoint.Manifest{m1, m2} {
		for _, f := range m.Files {
			if f.Worker >= 0 {
				files++
			}
		}
	}
	if got := agg.FilesLinked + agg.FilesCopied + agg.FilesReused; got != int64(files) || agg.Checkpoints != 2*int64(s.Workers()) {
		t.Fatalf("counted %d files in %d engine checkpoints, want %d in %d", got, agg.Checkpoints, files, 2*s.Workers())
	}
}

func TestCheckpointBarrierShortUnderLoad(t *testing.T) {
	fs := vfs.NewMem()
	s := openStore(t, fs, 4)
	defer s.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.Put([]byte(fmt.Sprintf("w%d-%06d", g, i)), []byte("v"))
				i++
			}
		}(g)
	}
	// A stats reader beside the checkpoint, which replaces each worker's
	// checkpoint counters as it materializes that worker's image.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.Stats()
			}
		}
	}()
	time.Sleep(20 * time.Millisecond)
	if _, err := s.Checkpoint(fs, "bak"); err != nil {
		close(stop)
		wg.Wait()
		t.Fatalf("Checkpoint under load: %v", err)
	}
	close(stop)
	wg.Wait()

	snap := s.StatsSnapshot()
	barrier := snap.CheckpointBarrierNs
	if barrier <= 0 {
		t.Fatal("checkpoint_barrier_ns not recorded")
	}
	// Acceptance bound: the barrier pauses writers for well under 100ms.
	if barrier > int64(100*time.Millisecond) {
		t.Fatalf("barrier stalled writers %v", time.Duration(barrier))
	}
	if snap.Checkpoints != 1 || snap.LastCheckpointUnix == 0 {
		t.Fatalf("store counters: checkpoints=%d last=%d", snap.Checkpoints, snap.LastCheckpointUnix)
	}
}

func TestRestoreDetectsTamperedFile(t *testing.T) {
	fs := vfs.NewMem()
	s := openStore(t, fs, 2)
	defer s.Close()
	for i := 0; i < 200; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	m, err := s.Checkpoint(fs, "bak")
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the largest image file.
	var victim checkpoint.File
	for _, f := range m.Files {
		if f.Size > victim.Size {
			victim = f
		}
	}
	if victim.Size == 0 {
		t.Fatal("no non-empty file to tamper with")
	}
	data, err := vfs.ReadFile(fs, "bak/"+victim.Path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := vfs.WriteFile(fs, "bak/"+victim.Path, data); err != nil {
		t.Fatal(err)
	}

	dst := vfs.NewMem()
	_, err = checkpoint.Restore(fs, "bak", dst, func(w int, rel string) string {
		return fmt.Sprintf("p2/inst-%02d/%s", w, rel)
	})
	if !errors.Is(err, checkpoint.ErrChecksumMismatch) {
		t.Fatalf("tampered restore err = %v, want ErrChecksumMismatch", err)
	}
}

// engineVariantFactories builds one factory per engine family, all using
// the same instance layout ("px/inst-NN") so a restored image opens with
// any of them applied to a fresh filesystem.
func engineVariantFactories() map[string]func(fs *vfs.MemFS) EngineFactory {
	return map[string]func(fs *vfs.MemFS) EngineFactory{
		"lsm": func(fs *vfs.MemFS) EngineFactory { return lsmFactory(fs, "px") },
		"btree": func(fs *vfs.MemFS) EngineFactory {
			return func(id int, _ func(uint64) bool) (kv.Engine, error) {
				return btreekv.Open(fmt.Sprintf("px/inst-%02d", id), btreekv.Options{FS: fs, CheckpointBytes: 32 << 10})
			}
		},
		"kvell": func(fs *vfs.MemFS) EngineFactory {
			return func(id int, _ func(uint64) bool) (kv.Engine, error) {
				return kvell.Open(fmt.Sprintf("px/inst-%02d", id), kvell.Options{FS: fs, Workers: 1})
			}
		},
	}
}

func TestCheckpointEngineVariants(t *testing.T) {
	for name, mk := range engineVariantFactories() {
		t.Run(name, func(t *testing.T) {
			fs := vfs.NewMem()
			opts := DefaultOptions(mk(fs))
			opts.Workers = 2
			opts.TxnFS = fs
			opts.TxnDir = "px/txn"
			s, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for i := 0; i < 300; i++ {
				if err := s.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprintf("val-%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 300; i += 5 {
				if err := s.Delete([]byte(fmt.Sprintf("key-%04d", i))); err != nil {
					t.Fatal(err)
				}
			}
			want := dump(t, s)
			if _, err := s.Checkpoint(fs, "bak"); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}

			dst := vfs.NewMem()
			place := func(worker int, rel string) string {
				if worker < 0 {
					return "px/txn/" + rel
				}
				return fmt.Sprintf("px/inst-%02d/%s", worker, rel)
			}
			if _, err := checkpoint.Restore(fs, "bak", dst, place); err != nil {
				t.Fatalf("Restore: %v", err)
			}
			ropts := DefaultOptions(mk(dst))
			ropts.Workers = 2
			ropts.TxnFS = dst
			ropts.TxnDir = "px/txn"
			r, err := Open(ropts)
			if err != nil {
				t.Fatalf("reopen from image: %v", err)
			}
			defer r.Close()
			if got := dump(t, r); !samePairs(want, got) {
				t.Fatalf("restored dump differs: want %d pairs, got %d", len(want), len(got))
			}
		})
	}
}

// TestCheckpointOutlivesShrinkAndGrow: a checkpoint writes its image after
// the barrier released, so reshards may run beside it — and a shrink followed
// by a grow hands a captured worker's id, and directory, to a blank engine.
// That grow must wait for the image.
func TestCheckpointOutlivesShrinkAndGrow(t *testing.T) {
	s := openElastic(t, vfs.NewMem(), "cg", 5)
	defer s.Close()
	for i := 0; i < 500; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key-%05d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	slow := vfs.NewFault(vfs.NewMem()) // the backup device: every write takes a while
	slow.Inject(vfs.Rule{Op: vfs.OpWrite, DelayOnly: true, Delay: 5 * time.Millisecond})
	done := make(chan error, 1)
	go func() {
		_, err := s.Checkpoint(slow, "bak")
		done <- err
	}()
	for s.ckptBarrierNs.Load() == 0 { // recorded once the workers are released
		select {
		case err := <-done:
			t.Fatalf("checkpoint ended before its image was written: %v", err)
		default:
			time.Sleep(100 * time.Microsecond)
		}
	}
	for _, n := range []int{4, 5} {
		if err := s.Reshard(context.Background(), n); err != nil {
			t.Fatalf("Reshard(%d) beside the image copy: %v", n, err)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("checkpoint overlapped by a shrink and a grow: %v", err)
	}
}
