package wal

import (
	"testing"

	"p2kvs/internal/raceflag"
	"p2kvs/internal/vfs"
)

// discardFile accepts every write and keeps nothing, so the only
// allocations an append over it can make are the writer's own.
type discardFile struct{ vfs.File }

func (discardFile) Write(p []byte) (int, error) { return len(p), nil }
func (discardFile) Sync() error                 { return nil }
func (discardFile) Close() error                { return nil }

// TestAppendAllocs pins the append of a log with one appender — what every
// p2KVS worker's engine has, the uncontended-leader path — at zero
// allocations once the scratch buffer has grown to the record size.
func TestAppendAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation pins are not meaningful under the race detector")
	}
	payload := make([]byte, 2048)
	w := NewWriter(discardFile{}, Options{})
	if err := w.Append(0, payload); err != nil { // grows the buffer
		t.Fatal(err)
	}
	var appendErr error
	n := testing.AllocsPerRun(1000, func() {
		if err := w.Append(7, payload); err != nil {
			appendErr = err
		}
	})
	if appendErr != nil || n != 0 {
		t.Errorf("%.2f allocs/append, err %v; want 0, nil", n, appendErr)
	}
}
