package core

import (
	"fmt"

	"p2kvs/internal/kv"
	"p2kvs/internal/repl"
)

// Replica-side entry point of GSN log-shipping replication: the server's
// replica manager decodes stream frames and applies each record here,
// through the normal worker write path. Applying through the engine (not
// around it) is what keeps every downstream subsystem valid on a replica:
// the engine journals the write, so crash recovery works; lastGSN
// ratchets to the primary's GSN, so checkpoints taken on the replica
// record real cursors; and scrub sees ordinary engine files.

// ApplyRepl applies one replicated record — worker id's write batch under
// the GSN the primary's worker assigned — and waits for the engine to
// acknowledge it. It is control-plane work (worker.do: replicated writes
// are never load-shed or rejected; a full queue simply backpressures the
// stream), and it never tags the engine's
// WAL record with the GSN — stream GSNs live in the replication layer,
// engine-level GSN tagging stays reserved for transaction legs.
//
// The store's global GSN counter ratchets up to the record's GSN first,
// so local allocations (transaction legs, checkpoint watermarks, a later
// promotion to primary) always continue the sequence.
func (s *Store) ApplyRepl(id int, gsn uint64, ops []kv.BatchOp) error {
	workers := s.ws()
	if id < 0 || id >= len(workers) {
		return fmt.Errorf("core: ApplyRepl: worker %d out of range [0,%d)", id, len(workers))
	}
	if len(ops) == 0 {
		return nil
	}
	if s.closed.Load() {
		return kv.ErrClosed
	}
	for {
		cur := s.gsn.Load()
		if gsn <= cur || s.gsn.CompareAndSwap(cur, gsn) {
			break
		}
	}
	// ops may alias the decoder's frame buffer: do returns only after the
	// worker applied them, and everything downstream that outlives the
	// apply (backlog, mirror, engine) copies.
	return workers[id].do(func(w *worker) error { return w.commit(ops, 0, gsn, true) })
}

// ReplLog exposes the store's replication backlog (nil when replication
// is disabled). The server's PSYNC handler streams from it.
func (s *Store) ReplLog() *repl.Log { return s.opts.ReplLog }
