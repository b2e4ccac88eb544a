package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"p2kvs/internal/checkpoint"
	"p2kvs/internal/keyspace"
	"p2kvs/internal/kv"
	"p2kvs/internal/vfs"
)

// Store-wide online checkpoint: a GSN barrier pauses every worker at a
// common watermark just long enough to capture each engine's cheap
// checkpoint state (kv.Checkpointer.PrepareCheckpoint) plus the
// transaction-log prefix, then writes resume while the bulk of the image
// is written out. Consistency across workers comes from the transaction
// protocol, not from the barrier alone: a cross-instance transaction's
// commit record is appended only after every leg has been applied, so any
// transaction only partially inside the captured WAL prefixes is missing
// its commit in the captured TXNLOG prefix and is rolled back by the
// recover filter when the image is restored — exactly the crash-recovery
// path of §4.5. A checkpoint also waits out every transaction in flight
// (Store.txnGate), so the captured TXNLOG prefix holds the commit of every
// transaction whose legs the image holds, and the manifest's per-worker
// stream cursors are the workers' watermarks, with nothing beneath them
// rolled back at restore.

// ErrCheckpointUnsupported reports an engine without kv.Checkpointer.
var ErrCheckpointUnsupported = errors.New("core: engine does not support checkpoints")

// Checkpoint writes an online checkpoint of the whole store into dir on
// fs, committing it with a CHECKPOINT manifest. A dir already holding a
// committed checkpoint becomes a backup set: unchanged immutable files
// are reused in place, so successive checkpoints are incremental. The
// previous checkpoint stays valid until the new manifest commits.
func (s *Store) Checkpoint(fs vfs.FS, dir string) (*checkpoint.Manifest, error) {
	if fs == nil {
		return nil, errors.New("core: Checkpoint requires a filesystem")
	}
	if s.closed.Load() {
		return nil, kv.ErrClosed
	}
	// No reshard from here until the workers are released: two coordinators'
	// barriers queue in no common order, and a shrink's retiring worker waits
	// on a mirror to a survivor this barrier would have parked — either way
	// both hang. A checkpoint therefore waits for a running reshard to
	// finish; one that starts while the image is written out below overlaps
	// it — the captured set stays a correct image of its epoch (restore opens
	// at the manifest's worker count), and a retired worker's engine and
	// directory outlive the image (closeRetired waits on ckptMu, which is why
	// reshMu is taken first).
	s.reshMu.Lock()
	resumeReshards := sync.OnceFunc(s.reshMu.Unlock)
	defer resumeReshards()
	// One checkpoint at a time: concurrent calls would race on the backup
	// set's sequence numbers.
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()

	prev, err := checkpoint.Load(fs, dir)
	if err != nil && !errors.Is(err, checkpoint.ErrNoManifest) {
		return nil, fmt.Errorf("core: backup set has a damaged manifest (clear %s to start fresh): %w", dir, err)
	}
	seq := uint64(1)
	prevFiles := make(map[string]checkpoint.File)
	if prev != nil {
		seq = prev.Seq + 1
		for _, f := range prev.Files {
			prevFiles[f.Path] = f
		}
	}
	if err := fs.MkdirAll(dir); err != nil {
		return nil, err
	}

	// --- Barrier: pause every worker at a common GSN watermark. ---
	// The barrier must land even on a saturated queue (it bypasses
	// admission control) and waits behind the queued work it fences.
	workers := s.ws()
	for _, w := range workers {
		if w.ck == nil {
			return nil, fmt.Errorf("%w (worker %d)", ErrCheckpointUnsupported, w.id)
		}
	}
	// No transaction between its legs and its commit record while the
	// workers park and the capture runs: one that starts meanwhile waits.
	s.txnGate.Lock()
	resumeTxns := sync.OnceFunc(s.txnGate.Unlock)
	defer resumeTxns()
	start := time.Now()
	release, err := barrierWorkers(workers, nil)
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint barrier: %w", err)
	}

	// All workers are parked: capture the watermarks and every engine's
	// checkpoint state. PrepareCheckpoint is designed to be cheap (no bulk
	// IO) so the pause stays short; the barrier duration is surfaced as
	// checkpoint_barrier_ns.
	gsn := s.gsn.Load()
	workerGSN := make([]uint64, len(workers))
	images := make([]kv.CheckpointImage, len(workers))
	var prepErr error
	for i, w := range workers {
		workerGSN[i] = w.lastGSN.Load()
		if images[i], prepErr = w.ck.PrepareCheckpoint(); prepErr != nil {
			prepErr = fmt.Errorf("core: preparing checkpoint of worker %d: %w", w.id, prepErr)
			break
		}
	}
	var txnImg kv.CheckpointImage
	if prepErr == nil && s.txn != nil {
		txnImg = kv.CheckpointImage{FS: s.opts.TxnFS, Files: []kv.CheckpointFile{
			{Name: "TXNLOG", Path: s.opts.TxnDir + "/TXNLOG", Size: s.txn.size()},
		}}
	}
	close(release)
	resumeTxns()
	resumeReshards()
	barrierNs := time.Since(start).Nanoseconds()
	defer func() {
		for _, img := range images {
			if img.Release != nil {
				img.Release()
			}
		}
	}()
	if prepErr != nil {
		return nil, prepErr
	}
	s.ckptBarrierNs.Store(barrierNs)

	// --- Writes resumed: emit the image, then commit the manifest. ---
	m := &checkpoint.Manifest{
		Seq:         seq,
		Workers:     len(workers),
		Engine:      engineLabel(s.opts.EngineName),
		Partitioner: partitionerName(s.opts.Partitioner),
		GSN:         gsn,
		WorkerGSN:   workerGSN,
		TakenUnixNs: start.UnixNano(),
		BarrierNs:   barrierNs,
	}
	if s.opts.ReplLog != nil {
		m.ReplID = s.opts.ReplLog.ID()
	}
	// add materializes one image — a worker's engine into its
	// subdirectory, or the TXNLOG as worker -1 into dir itself — and
	// records its files in the manifest.
	add := func(worker int, sub string, img kv.CheckpointImage, st *kv.CheckpointStats) error {
		at := dir
		if sub != "" {
			at, sub = dir+"/"+sub, sub+"/"
		}
		names, err := img.Materialize(fs, at, seq, st)
		if err != nil {
			return err
		}
		for i, name := range names {
			mf := checkpoint.File{Worker: worker, Path: sub + name, Restore: img.Files[i].Name}
			// A path already committed by a previous manifest is immutable
			// by the naming convention, so its recorded checksum still
			// holds — reusing it keeps incremental checkpoints from
			// re-reading every unchanged SST.
			if pf, ok := prevFiles[mf.Path]; ok {
				mf.Size, mf.CRC = pf.Size, pf.CRC
			} else if mf.CRC, mf.Size, err = vfs.Checksum(fs, dir+"/"+mf.Path); err != nil {
				return err
			}
			m.Files = append(m.Files, mf)
		}
		return nil
	}
	for i, img := range images {
		st := *workers[i].ckpt.Load()
		err := add(i, fmt.Sprintf("worker-%d", i), img, &st)
		workers[i].ckpt.Store(&st)
		if err != nil {
			return nil, fmt.Errorf("core: writing checkpoint of worker %d: %w", i, err)
		}
	}
	if txnImg.FS != nil {
		if err := add(-1, "", txnImg, new(kv.CheckpointStats)); err != nil {
			return nil, fmt.Errorf("core: capturing transaction log: %w", err)
		}
	}
	if err := checkpoint.Write(fs, dir, m); err != nil {
		return nil, err
	}
	checkpoint.GC(fs, dir, m, prev)
	s.ckptCount.Add(1)
	s.lastCkptUnix.Store(time.Now().Unix())
	return m, nil
}

func engineLabel(name string) string {
	if name == "" {
		return "unspecified"
	}
	return name
}

// partitionerName labels the partitioner family for the manifest, so a
// restore can reject an image whose key→worker mapping would not match.
func partitionerName(p keyspace.Partitioner) string {
	switch p.(type) {
	case keyspace.Hash:
		return "hash"
	case keyspace.Consistent:
		return "consistent"
	case keyspace.Range:
		return "range"
	default:
		return "custom"
	}
}
