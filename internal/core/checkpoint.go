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
// path of §4.5. Because restore rolls those legs back, the manifest's
// per-worker stream cursors are lowered beneath them (checkpointCut), so
// a replica bootstrapping from the image recovers them from the
// replication stream rather than losing them to the rollback.

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
	writers := make([]kv.CheckpointWriter, len(workers))
	var prepErr error
	for i, w := range workers {
		workerGSN[i] = w.lastGSN.Load()
		cw, err := w.ck.PrepareCheckpoint()
		if err != nil {
			prepErr = fmt.Errorf("core: preparing checkpoint of worker %d: %w", w.id, err)
			break
		}
		writers[i] = cw
	}
	txnSize := int64(-1)
	var txnFloors []uint64
	if prepErr == nil && s.txn != nil {
		txnSize, txnFloors = s.txn.checkpointCut(len(workers))
	}
	close(release)
	resumeReshards()
	barrierNs := time.Since(start).Nanoseconds()
	defer func() {
		for _, cw := range writers {
			if cw != nil {
				cw.Release()
			}
		}
	}()
	if prepErr != nil {
		return nil, prepErr
	}
	s.ckptBarrierNs.Store(barrierNs)

	// A transaction whose commit record missed the captured TXNLOG prefix
	// is rolled back when the image restores, yet its applied legs sit in
	// the WAL prefixes and below the raw watermarks. Lower each stream
	// cursor beneath such legs so a replica bootstrapping from this image
	// receives them (and everything after — re-application of plain op
	// batches is idempotent) from the stream instead of silently losing
	// them.
	for i, floor := range txnFloors {
		if floor != 0 && floor-1 < workerGSN[i] {
			workerGSN[i] = floor - 1
		}
	}

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
	for i, cw := range writers {
		sub := fmt.Sprintf("worker-%d", i)
		files, err := cw.WriteTo(fs, dir+"/"+sub, seq)
		if err != nil {
			return nil, fmt.Errorf("core: writing checkpoint of worker %d: %w", i, err)
		}
		for _, f := range files {
			mf := checkpoint.File{Worker: i, Path: sub + "/" + f.Name, Restore: f.Restore}
			// A path already committed by a previous manifest is immutable
			// by the naming convention, so its recorded checksum still
			// holds — reusing it keeps incremental checkpoints from
			// re-reading every unchanged SST.
			if pf, ok := prevFiles[mf.Path]; ok {
				mf.Size, mf.CRC = pf.Size, pf.CRC
			} else {
				crc, size, err := vfs.Checksum(fs, dir+"/"+mf.Path)
				if err != nil {
					return nil, err
				}
				mf.Size, mf.CRC = size, crc
			}
			m.Files = append(m.Files, mf)
		}
	}
	if txnSize >= 0 {
		name := fmt.Sprintf("TXNLOG-ckpt%06d", seq)
		if err := vfs.CopyPrefix(s.opts.TxnFS, s.opts.TxnDir+"/TXNLOG", fs, dir+"/"+name, txnSize); err != nil {
			return nil, fmt.Errorf("core: capturing transaction log: %w", err)
		}
		crc, size, err := vfs.Checksum(fs, dir+"/"+name)
		if err != nil {
			return nil, err
		}
		m.Files = append(m.Files, checkpoint.File{
			Worker: -1, Path: name, Restore: "TXNLOG", Size: size, CRC: crc,
		})
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
