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
//
// It also tracks, per in-flight transaction, the replication-stream GSNs
// its applied legs shipped into the backlog. A checkpoint image restores
// with uncommitted transactions rolled back, so the manifest's stream
// cursors must not claim those legs — checkpointCut hands the checkpoint
// a per-worker floor to lower its cursors below, atomically with the
// log-prefix cut, so "restore image + stream from cursors" re-delivers
// exactly the records the rollback dropped.
type txnLog struct {
	fs  vfs.FS
	dir string

	mu sync.Mutex
	w  *wal.Writer
	// inflight maps a begun-but-unresolved transaction's GSN to the
	// stream GSN each worker's applied leg shipped (absent until the leg
	// applies). Entries leave at commit — or at abandon, when an errored
	// transaction will never commit and recovery everywhere rolls it
	// back, so cursors need not (and must not, or the backlog would stay
	// pinned forever) be held down for it.
	inflight map[uint64]map[int]uint64
}

const (
	txnBegin  = 1
	txnCommit = 2
)

// openTxnLog loads the committed-GSN set and highest GSN seen, then
// starts a fresh log seeded with the still-relevant commits.
func openTxnLog(fs vfs.FS, dir string) (_ *txnLog, committed map[uint64]bool, maxGSN uint64, err error) {
	if err := fs.MkdirAll(dir); err != nil {
		return nil, nil, 0, err
	}
	w, committed, maxGSN, err := replatformTxnLog(fs, dir)
	if err != nil {
		return nil, nil, 0, err
	}
	return &txnLog{fs: fs, dir: dir, w: w, inflight: make(map[uint64]map[int]uint64)}, committed, maxGSN, nil
}

// replatformTxnLog reads dir's TXNLOG (a torn tail ends the read
// silently: that record never committed), rewrites it compacted — commits
// only — into TXNLOG.new and renames that into place, returning the writer
// positioned after the rewrite. Every open starts from it, and it is the
// only way out of a tainted writer (heal).
func replatformTxnLog(fs vfs.FS, dir string) (_ *wal.Writer, committed map[uint64]bool, maxGSN uint64, err error) {
	name := dir + "/TXNLOG"
	committed = make(map[uint64]bool)
	if fs.Exists(name) {
		recs, err := wal.ReadAll(fs, name)
		if err != nil {
			return nil, nil, 0, err
		}
		for _, r := range recs {
			typ, gsn, err := decodeTxnRec(r.Payload)
			if err != nil {
				return nil, nil, 0, err
			}
			if gsn > maxGSN {
				maxGSN = gsn
			}
			if typ == txnCommit {
				committed[gsn] = true
			}
		}
	}
	f, err := fs.Create(name + ".new")
	if err != nil {
		return nil, nil, 0, err
	}
	w := wal.NewWriter(f, wal.Options{Policy: wal.PolicyCommit})
	for gsn := range committed {
		if err := w.Append(gsn, encodeTxnRec(txnCommit, gsn)); err != nil {
			w.Close()
			return nil, nil, 0, err
		}
	}
	if err := fs.Rename(name+".new", name); err != nil {
		w.Close()
		return nil, nil, 0, err
	}
	return w, committed, maxGSN, nil
}

// heal gives the log a fresh writer when a failed append tainted the
// current one (a tainted writer refuses every later append, so without
// this one injected fault would fail every cross-partition write until
// the process restarts). Begin records of transactions still in flight are
// not carried over: recovery only ever asks which GSNs committed.
func (t *txnLog) heal() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.w.Tainted() {
		return nil
	}
	w, _, _, err := replatformTxnLog(t.fs, t.dir)
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
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.w.Append(gsn, encodeTxnRec(txnBegin, gsn)); err != nil {
		return err
	}
	t.inflight[gsn] = nil
	return nil
}

// commit durably records that every instance acknowledged gsn. The
// in-flight entry leaves under the same lock section that appends the
// record, so a concurrent checkpointCut sees either the commit inside
// its prefix or the transaction still in flight — never neither.
func (t *txnLog) commit(gsn uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	err := t.w.Append(gsn, encodeTxnRec(txnCommit, gsn))
	// On append failure the commit is not durable and the caller reports
	// the transaction failed: recovery rolls it back everywhere, so the
	// entry resolves as abandoned.
	delete(t.inflight, gsn)
	return err
}

// abandon resolves a transaction that will never commit (a leg failed or
// its deadline fired mid-flight). Recovery and every image restore roll
// it back, so checkpoints stop holding stream cursors below its legs; a
// replica therefore converges to the rolled-back state — the same state
// the primary itself reports after any restart.
func (t *txnLog) abandon(gsn uint64) {
	t.mu.Lock()
	delete(t.inflight, gsn)
	t.mu.Unlock()
}

// noteLeg records that worker's leg of transaction gsn shipped into the
// replication backlog under streamGSN. A leg landing after its
// transaction was abandoned is dropped — the entry is gone and cursors
// are not held for rolled-back work.
func (t *txnLog) noteLeg(gsn uint64, worker int, streamGSN uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	legs, ok := t.inflight[gsn]
	if !ok {
		return
	}
	if legs == nil {
		legs = make(map[int]uint64)
		t.inflight[gsn] = legs
	}
	legs[worker] = streamGSN
}

// checkpointCut atomically captures the stable log prefix a checkpoint
// copies and, per worker, the lowest stream GSN shipped by a transaction
// whose commit is NOT inside that prefix (0 = none). Restoring the image
// rolls those transactions back, so the checkpoint lowers its per-worker
// stream cursors below the floors: the replication stream then
// re-delivers the rolled-back legs (and everything after them — stream
// records are plain last-writer-wins op batches, so re-application is
// idempotent). Both values come from one lock section, so a commit
// racing with the cut either lands its record inside the prefix or
// leaves its legs in the floors — never neither, which would open a
// silent replication hole.
func (t *txnLog) checkpointCut(workers int) (size int64, floors []uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	floors = make([]uint64, workers)
	for _, legs := range t.inflight {
		for w, g := range legs {
			if w < 0 || w >= workers {
				continue
			}
			if floors[w] == 0 || g < floors[w] {
				floors[w] = g
			}
		}
	}
	return t.w.Size(), floors
}

func (t *txnLog) close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.w.Close()
}
