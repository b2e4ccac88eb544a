package loadgen

import (
	"bufio"
	"encoding/hex"
	"os"
	"sync"
)

// AckedLog is a client-side journal of acknowledged writes (netbench
// -acked_log, the crash harness). A load driver appends one record per
// write the server *acked*; after a server crash and restart the journal
// names every write that must still be present. The log lives in the
// driver process, which survives the server's crash, so buffered writes
// are fine — Close before reading it.
//
// Records are lines of tab-separated fields, each field hex-encoded so
// arbitrary binary keys and values round-trip.
type AckedLog struct {
	mu sync.Mutex
	f  *os.File
	bw *bufio.Writer
}

// CreateAckedLog creates (truncating) the log at path.
func CreateAckedLog(path string) (*AckedLog, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &AckedLog{f: f, bw: bufio.NewWriterSize(f, 1<<16)}, nil
}

// Append writes one record. Safe for concurrent use (each connection of
// a load driver logs its own acks).
func (w *AckedLog) Append(fields ...string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i, fld := range fields {
		if i > 0 {
			if err := w.bw.WriteByte('\t'); err != nil {
				return err
			}
		}
		if _, err := w.bw.WriteString(hex.EncodeToString([]byte(fld))); err != nil {
			return err
		}
	}
	return w.bw.WriteByte('\n')
}

// Close flushes and closes the log.
func (w *AckedLog) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}
