package core

import (
	"fmt"
	"math/rand"
	"testing"

	"p2kvs/internal/kv"
	"p2kvs/internal/vfs"
)

// TestCrashDurabilityRandomOps is the store-level crash property: with
// per-commit durability, every acknowledged operation must survive a
// power failure, across any random op mix, on every worker.
func TestCrashDurabilityRandomOps(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial-%d", trial), func(t *testing.T) {
			fs := vfs.NewMem()
			s := openStore(t, fs, 3)
			r := rand.New(rand.NewSource(int64(trial)))
			model := map[string]string{}
			deleted := map[string]bool{}
			for i := 0; i < 600; i++ {
				k := fmt.Sprintf("key-%03d", r.Intn(120))
				switch r.Intn(10) {
				case 0:
					if err := s.Delete([]byte(k)); err != nil {
						t.Fatal(err)
					}
					delete(model, k)
					deleted[k] = true
				case 1, 2:
					// Small batch (may span partitions — GSN txn).
					var b kv.Batch
					for j := 0; j < 3; j++ {
						bk := fmt.Sprintf("key-%03d", r.Intn(120))
						bv := fmt.Sprintf("b%d-%d", i, j)
						b.Put([]byte(bk), []byte(bv))
						model[bk] = bv
						delete(deleted, bk)
					}
					if err := s.Write(&b); err != nil {
						t.Fatal(err)
					}
				default:
					v := fmt.Sprintf("v-%d", i)
					if err := s.Put([]byte(k), []byte(v)); err != nil {
						t.Fatal(err)
					}
					model[k] = v
					delete(deleted, k)
				}
			}
			fs.Crash()
			s.Close()
			fs.Restart()

			s2 := openStore(t, fs, 3)
			defer s2.Close()
			for k, want := range model {
				v, err := s2.Get([]byte(k))
				if err != nil || string(v) != want {
					t.Fatalf("Get(%s) after crash = %q %v, want %q", k, v, err, want)
				}
			}
			for k := range deleted {
				if _, ok := model[k]; ok {
					continue
				}
				if _, err := s2.Get([]byte(k)); err != kv.ErrNotFound {
					t.Fatalf("deleted key %s resurrected: %v", k, err)
				}
			}
		})
	}
}

// TestWritePreparedCommitSurvives checks the other half of the prepared
// API: a prepared-then-committed transaction survives a crash.
func TestWritePreparedCommitSurvives(t *testing.T) {
	fs := vfs.NewMem()
	s := openStore(t, fs, 4)
	var b kv.Batch
	for i := 0; i < 10; i++ {
		b.Put([]byte(fmt.Sprintf("p-%02d", i)), []byte("v"))
	}
	commit, err := s.WritePrepared(&b)
	if err != nil {
		t.Fatal(err)
	}
	if err := commit(); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	s.Close()
	fs.Restart()

	s2 := openStore(t, fs, 4)
	defer s2.Close()
	for i := 0; i < 10; i++ {
		if _, err := s2.Get([]byte(fmt.Sprintf("p-%02d", i))); err != nil {
			t.Fatalf("committed prepared txn key %d lost: %v", i, err)
		}
	}
}
