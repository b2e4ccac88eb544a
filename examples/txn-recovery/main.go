// txn-recovery demonstrates §4.5 of the paper (Figure 11): a WriteBatch
// spanning several p2KVS instances commits atomically via the Global
// Sequence Number log, and a crash between the instance writes and the
// commit record rolls the whole transaction back at recovery on every
// instance.
//
// The crash is injected with the in-memory filesystem's power-failure
// hook: everything not fsynced is dropped, exactly like a machine losing
// power.
package main

import (
	"fmt"
	"log"

	"p2kvs/internal/core"
	"p2kvs/internal/kv"
	"p2kvs/internal/lsm"
	"p2kvs/internal/vfs"
	"p2kvs/internal/wal"
)

func main() {
	fs := vfs.NewMem()
	open := func() *core.Store {
		opts := core.DefaultOptions(func(id int, filter func(uint64) bool) (kv.Engine, error) {
			o := lsm.RocksDBOptions(fs)
			o.WALSync = wal.PolicyCommit // durability per commit, so the crash is meaningful
			return lsm.OpenWith(fmt.Sprintf("bank/inst-%02d", id), o, lsm.OpenOptions{RecoverFilter: filter})
		})
		opts.Workers = 4
		opts.TxnFS = fs
		opts.TxnDir = "bank/txn"
		s, err := core.Open(opts)
		if err != nil {
			log.Fatal(err)
		}
		return s
	}

	// Transaction A: a transfer that commits.
	store := open()
	var txA kv.Batch
	txA.Put([]byte("account:alice"), []byte("900"))
	txA.Put([]byte("account:bob"), []byte("1100"))
	if err := store.Write(&txA); err != nil {
		log.Fatal(err)
	}
	fmt.Println("transaction A committed (alice=900, bob=1100)")

	// Transaction B: WritePrepared applies the split WriteBatches on the
	// instances but leaves the commit to us — and we crash the "machine"
	// before calling it.
	var txB kv.Batch
	txB.Put([]byte("account:alice"), []byte("0"))
	txB.Put([]byte("account:bob"), []byte("2000"))
	if _, err := store.WritePrepared(&txB); err != nil {
		log.Fatal(err)
	}
	fmt.Println("transaction B applied on instances; crashing before commit...")
	fs.Crash()
	fs.Restart()

	// Recovery: p2KVS reads the GSN log, sees no commit for B, and
	// filters B's records out of every instance's WAL replay.
	recovered := open()
	defer recovered.Close()
	alice, err := recovered.Get([]byte("account:alice"))
	if err != nil {
		log.Fatal(err)
	}
	bob, err := recovered.Get([]byte("account:bob"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after recovery: alice=%s bob=%s\n", alice, bob)
	if string(alice) == "900" && string(bob) == "1100" {
		fmt.Println("uncommitted transaction B was rolled back on all instances ✓")
	} else {
		fmt.Println("UNEXPECTED: partial transaction survived")
	}
}
