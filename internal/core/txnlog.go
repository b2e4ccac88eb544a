package core

import (
	"encoding/binary"
	"fmt"
	"sync"

	"p2kvs/internal/vfs"
	"p2kvs/internal/wal"
)

// txnLog persists transaction begin/commit records keyed by GSN (§4.5,
// Figure 11). On recovery, transactions with a begin but no commit are
// rolled back by filtering their GSN out of every instance's WAL replay.
type txnLog struct {
	fs  vfs.FS
	dir string

	mu sync.Mutex
	w  *wal.Writer
}

const (
	txnBegin  = 1
	txnCommit = 2
)

// readTxnLog reads dir's TXNLOG (a torn tail ends the read silently: that
// record never committed): the committed-GSN set the engines' recovery
// filters by, and the highest GSN seen.
func readTxnLog(fs vfs.FS, dir string) (committed map[uint64]bool, maxGSN uint64, err error) {
	name := dir + "/TXNLOG"
	committed = make(map[uint64]bool)
	if !fs.Exists(name) {
		return committed, 0, nil
	}
	recs, err := wal.ReadAll(fs, name)
	if err != nil {
		return nil, 0, err
	}
	for _, r := range recs {
		typ, gsn, err := decodeTxnRec(r.Payload)
		if err != nil {
			return nil, 0, err
		}
		maxGSN = max(maxGSN, gsn)
		if typ == txnCommit {
			committed[gsn] = true
		}
	}
	return committed, maxGSN, nil
}

// rewriteTxnLog writes a commit record of each of commits into TXNLOG.new
// and renames that into place, so a crash before the rename leaves the old
// log whole, and returns the writer positioned after them.
func rewriteTxnLog(fs vfs.FS, dir string, commits map[uint64]bool) (*wal.Writer, error) {
	name := dir + "/TXNLOG"
	if err := fs.MkdirAll(dir); err != nil {
		return nil, err
	}
	f, err := fs.Create(name + ".new")
	if err != nil {
		return nil, err
	}
	w := wal.NewWriter(f, wal.Options{Policy: wal.PolicyCommit})
	for gsn := range commits {
		if err := w.Append(gsn, encodeTxnRec(txnCommit, gsn)); err != nil {
			w.Close()
			return nil, err
		}
	}
	if err := fs.Rename(name+".new", name); err != nil {
		w.Close()
		return nil, err
	}
	return w, nil
}

// heal gives the log a fresh writer when a failed append tainted the
// current one (a tainted writer refuses every later append, so without
// this one injected fault would fail every cross-partition write until
// the process restarts). It carries the commits made since Open over;
// begin records of transactions still in flight are not: recovery only
// ever asks which GSNs committed.
func (t *txnLog) heal() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.w.Tainted() {
		return nil
	}
	committed, _, err := readTxnLog(t.fs, t.dir)
	if err != nil {
		return err
	}
	w, err := rewriteTxnLog(t.fs, t.dir, committed)
	if err != nil {
		return err
	}
	t.w.Close() // nothing can be appended to it any more; its bytes were just re-read
	t.w = w
	return nil
}

func encodeTxnRec(typ byte, gsn uint64) []byte {
	var b [9]byte
	b[0] = typ
	binary.LittleEndian.PutUint64(b[1:], gsn)
	return b[:]
}

func decodeTxnRec(p []byte) (typ byte, gsn uint64, err error) {
	if len(p) != 9 {
		return 0, 0, fmt.Errorf("core: bad txn record length %d", len(p))
	}
	return p[0], binary.LittleEndian.Uint64(p[1:]), nil
}

// begin durably records that gsn's WriteBatches are about to be issued.
func (t *txnLog) begin(gsn uint64) error {
	return t.append(txnBegin, gsn)
}

// commit durably records that every instance acknowledged gsn. When the
// append fails the commit is not durable, the caller reports the
// transaction failed, and recovery rolls it back everywhere.
func (t *txnLog) commit(gsn uint64) error {
	return t.append(txnCommit, gsn)
}

func (t *txnLog) append(typ byte, gsn uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.w.Append(gsn, encodeTxnRec(typ, gsn))
}

// size is the log's length: the prefix a checkpoint copies. A checkpoint
// reads it with no transaction in flight (Store.txnGate), so a leg its
// image holds without a commit inside that prefix is of a transaction
// that failed, which recovery rolls back on the primary too.
func (t *txnLog) size() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.w.Size()
}

func (t *txnLog) close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.w.Close()
}
