// txn-recovery demonstrates §4.5 of the paper (Figure 11): a WriteBatch
// spanning several p2KVS instances commits atomically via the Global
// Sequence Number log, and a crash between the instance writes and the
// commit record rolls the whole transaction back at recovery on every
// instance.
//
// The crash is injected with the in-memory filesystem's power-failure
// hook: everything not fsynced is dropped, exactly like a machine losing
// power. The demo exits 1 unless recovery rolled the partial transaction
// back.
package main

import (
	"fmt"
	"log"
	"os"

	"p2kvs/internal/core"
	"p2kvs/internal/kv"
	"p2kvs/internal/lsm"
	"p2kvs/internal/vfs"
	"p2kvs/internal/wal"
)

func main() {
	mem := vfs.NewMem()
	// The transaction log sits behind a fault layer, so the demo can fail
	// one transaction's commit record after its legs were applied.
	txnFS := vfs.NewFault(mem)
	open := func() *core.Store {
		opts := core.DefaultOptions(func(id int, filter func(uint64) bool) (kv.Engine, error) {
			o := lsm.RocksDBOptions(mem)
			o.WALSync = wal.PolicyCommit // durability per commit, so the crash is meaningful
			return lsm.OpenWith(fmt.Sprintf("bank/inst-%02d", id), o, lsm.OpenOptions{RecoverFilter: filter})
		})
		opts.Workers = 4
		opts.TxnFS = txnFS
		opts.TxnDir = "bank/txn"
		s, err := core.Open(opts)
		if err != nil {
			log.Fatal(err)
		}
		return s
	}

	// Transaction A: a transfer that commits. The two accounts live on
	// different instances, so every transfer is a cross-instance batch.
	store := open()
	var txA kv.Batch
	txA.Put([]byte("account:alice"), []byte("900"))
	txA.Put([]byte("account:dave"), []byte("1100"))
	if err := store.Write(&txA); err != nil {
		log.Fatal(err)
	}
	fmt.Println("transaction A committed (alice=900, dave=1100)")

	// Transaction B: its begin record and the split WriteBatches on the
	// instances persist, but the second TXNLOG write from here — its
	// commit record — fails, and the "machine" crashes right after.
	txnFS.Inject(vfs.Rule{Op: vfs.OpWrite, Path: "TXNLOG", CountN: 2})
	var txB kv.Batch
	txB.Put([]byte("account:alice"), []byte("0"))
	txB.Put([]byte("account:dave"), []byte("2000"))
	if err := store.Write(&txB); err == nil {
		log.Fatal("transaction B committed despite its failed commit record")
	}
	if v, err := store.Get([]byte("account:alice")); err != nil || string(v) != "0" {
		fmt.Printf("UNEXPECTED: transaction B's leg is not applied (alice=%s, %v)\n", v, err)
		os.Exit(1)
	}
	fmt.Println("transaction B applied on instances; its commit record failed, crashing...")
	mem.Crash()
	store.Close() // stop the old store's goroutines (a real crash kills the process)
	mem.Restart()
	txnFS.ClearRules()

	// Recovery: p2KVS reads the GSN log, sees no commit for B, and
	// filters B's records out of every instance's WAL replay.
	recovered := open()
	defer recovered.Close()
	alice, err := recovered.Get([]byte("account:alice"))
	if err != nil {
		log.Fatal(err)
	}
	dave, err := recovered.Get([]byte("account:dave"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after recovery: alice=%s dave=%s\n", alice, dave)
	if string(alice) != "900" || string(dave) != "1100" {
		fmt.Println("UNEXPECTED: partial transaction survived")
		os.Exit(1)
	}
	fmt.Println("uncommitted transaction B was rolled back on all instances ✓")
}
