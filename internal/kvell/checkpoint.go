package kvell

import (
	"encoding/binary"
	"errors"

	"p2kvs/internal/kv"
	"p2kvs/internal/vfs"
)

// Online backup (kv.Checkpointer). KVell updates slab slots in place with
// no log: there is no immutable unit to link and no append-only prefix to
// copy, so a consistent capture is necessarily a full serialization — the
// same cost shape as KVell's recovery, which rescans every slab. The dump
// is collected through the workers' own request queues (each worker
// snapshots its partition on its single thread, KVell's share-nothing
// rule), so PrepareCheckpoint is O(live data) — the engine trades the
// cheap-capture property for its logless write path, and the accessing
// layer's barrier time reflects that.

const snapshotName = "SNAPSHOT"

var _ kv.Checkpointer = (*Store)(nil)

// PrepareCheckpoint implements kv.Checkpointer. The capture lives in
// memory: nothing on disk is pinned.
func (s *Store) PrepareCheckpoint() (kv.CheckpointImage, error) {
	pairs, err := s.Scan(nil, 1<<31-1)
	if err != nil {
		return kv.CheckpointImage{}, err
	}
	return kv.CheckpointImage{Files: []kv.CheckpointFile{{Name: snapshotName, Write: func(fs vfs.FS, path string) error {
		return vfs.WriteFile(fs, path, encodeSnapshot(pairs))
	}}}}, nil
}

// Snapshot layout: count u32 | (klen u16 | vlen u32 | key | value)*.
func encodeSnapshot(pairs []kv.Pair) []byte {
	size := 4
	for _, p := range pairs {
		size += 6 + len(p.Key) + len(p.Value)
	}
	buf := make([]byte, 4, size)
	binary.LittleEndian.PutUint32(buf, uint32(len(pairs)))
	for _, p := range pairs {
		var hdr [6]byte
		binary.LittleEndian.PutUint16(hdr[:], uint16(len(p.Key)))
		binary.LittleEndian.PutUint32(hdr[2:], uint32(len(p.Value)))
		buf = append(buf, hdr[:]...)
		buf = append(buf, p.Key...)
		buf = append(buf, p.Value...)
	}
	return buf
}

func decodeSnapshot(buf []byte) ([]kv.Pair, error) {
	if len(buf) < 4 {
		return nil, errors.New("kvell: truncated snapshot header")
	}
	count := int(binary.LittleEndian.Uint32(buf))
	buf = buf[4:]
	pairs := make([]kv.Pair, 0, count)
	for i := 0; i < count; i++ {
		if len(buf) < 6 {
			return nil, errors.New("kvell: truncated snapshot record header")
		}
		klen := int(binary.LittleEndian.Uint16(buf))
		vlen := int(binary.LittleEndian.Uint32(buf[2:]))
		buf = buf[6:]
		if klen+vlen > len(buf) {
			return nil, errors.New("kvell: truncated snapshot record")
		}
		key := append([]byte(nil), buf[:klen]...)
		val := append([]byte(nil), buf[klen:klen+vlen]...)
		buf = buf[klen+vlen:]
		pairs = append(pairs, kv.Pair{Key: key, Value: val})
	}
	return pairs, nil
}

// replaySnapshot loads a restored SNAPSHOT file into the slabs through the
// normal write path, then retires it. Called from Open after the workers
// are running.
func (s *Store) replaySnapshot() error {
	data, err := vfs.ReadFile(s.opts.FS, s.dir+"/"+snapshotName)
	if err != nil {
		return err
	}
	pairs, err := decodeSnapshot(data)
	if err != nil {
		return err
	}
	for _, p := range pairs {
		if err := s.Put(p.Key, p.Value); err != nil {
			return err
		}
	}
	if err := s.Flush(); err != nil {
		return err
	}
	return s.opts.FS.Remove(s.dir + "/" + snapshotName)
}
