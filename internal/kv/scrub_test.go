package kv

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"p2kvs/internal/vfs"
)

// backupMap is a RepairSource: restore name -> backup bytes.
type backupMap map[string][]byte

func (m backupMap) Fetch(name string) ([]byte, bool) {
	b, ok := m[name]
	return b, ok
}

// countingLimiter never waits and adds up what it was charged.
type countingLimiter struct{ n atomic.Int64 }

func (l *countingLimiter) WaitN(_ context.Context, n int) error {
	l.n.Add(int64(n))
	return nil
}

// fakeFiles is an engine's file list over a MemFS: a file whose bytes begin
// "bad" fails verification, a removed file is retired, and a check rejects
// "bad" backups as the engine's own format check would.
type fakeFiles struct {
	fs          *vfs.MemFS
	quarantined map[string]bool
	late        []string          // listed from the second list on
	onVerify    map[string]func() // runs before the named file's verify
	broken      string            // verify fails with errDevice
	lists       int
	verified    []string
}

func (e *fakeFiles) list() ([]ScrubFile, error) {
	e.lists++
	names, _ := e.fs.List("db")
	slices.Sort(names)
	var out []ScrubFile
	for _, n := range names {
		if e.lists == 1 && slices.Contains(e.late, n) {
			continue
		}
		data, _ := vfs.ReadFile(e.fs, "db/"+n)
		out = append(out, ScrubFile{Name: n, Size: int64(len(data)), Quarantined: e.quarantined[n]})
	}
	return out, nil
}

func (e *fakeFiles) verify(f ScrubFile) (int64, error) {
	if fn := e.onVerify[f.Name]; fn != nil {
		fn()
	}
	e.verified = append(e.verified, f.Name)
	if f.Name == e.broken {
		return 0, errDevice
	}
	data, err := vfs.ReadFile(e.fs, "db/"+f.Name)
	if err != nil {
		return 0, err
	}
	if bytes.HasPrefix(data, []byte("bad")) {
		return int64(len(data)), &CorruptionError{File: f.Name, Detail: "flipped"}
	}
	return int64(len(data)), nil
}

var errDevice = errors.New("device gone")

func checkImage(name string, data []byte) error {
	if bytes.HasPrefix(data, []byte("bad")) {
		return fmt.Errorf("%s: backup fails its check", name)
	}
	return nil
}

// TestScrubFiles drives one pass over a fake file list per case and checks
// every ScrubResult field, the bytes charged to the limiter and what was
// read, repaired or left on disk.
func TestScrubFiles(t *testing.T) {
	for _, tc := range []struct {
		name        string
		files       map[string]string // name -> content under db/
		backups     backupMap
		quarantined []string
		late        []string
		retire      map[string]string // verifying the key removes the value
		broken      string
		cancel      bool
		want        ScrubResult
		wantErr     error
		charged     int64
		verified    []string
		after       map[string]string // content expected once the pass ends
	}{
		{name: "clean", files: map[string]string{"a": "0123456789", "b": "01234"},
			want: ScrubResult{FilesScanned: 2, BytesScanned: 15}, charged: 15, verified: []string{"a", "b"}},
		{name: "corrupt, repaired", files: map[string]string{"a": "0123456789", "b": "bad-bytes"},
			backups: backupMap{"b": []byte("good-bytes")},
			want:    ScrubResult{FilesScanned: 2, BytesScanned: 19, CorruptionsFound: 1, FilesRepaired: 1}, charged: 19,
			verified: []string{"a", "b"}, after: map[string]string{"b": "good-bytes"}},
		{name: "corrupt, backup rejected", files: map[string]string{"a": "0123456789", "b": "bad-bytes"},
			backups: backupMap{"b": []byte("bad-backup")},
			want:    ScrubResult{FilesScanned: 2, BytesScanned: 19, CorruptionsFound: 1}, charged: 19,
			verified: []string{"a", "b"}, after: map[string]string{"b": "bad-bytes"}},
		{name: "retired mid-pass", files: map[string]string{"a": "0123456789", "b": "01234"},
			retire: map[string]string{"a": "b"},
			want:   ScrubResult{FilesScanned: 1, BytesScanned: 10}, charged: 15, verified: []string{"a", "b"}},
		{name: "second sweep", files: map[string]string{"a": "0123456789", "c": "012"}, late: []string{"c"},
			want: ScrubResult{FilesScanned: 2, BytesScanned: 13}, charged: 13, verified: []string{"a", "c"}},
		{name: "already quarantined", files: map[string]string{"a": "0123456789", "q": "bad-bytes"},
			backups: backupMap{"q": []byte("good-bytes")}, quarantined: []string{"q"},
			want: ScrubResult{FilesScanned: 1, BytesScanned: 10, FilesRepaired: 1}, charged: 10,
			verified: []string{"a"}, after: map[string]string{"q": "good-bytes"}},
		{name: "cancelled", files: map[string]string{"a": "0123456789"}, cancel: true,
			wantErr: context.Canceled},
		// An error that is not corruption, on a file still listed, ends the pass.
		{name: "read error", files: map[string]string{"a": "0123456789", "b": "01234"}, broken: "a",
			wantErr: errDevice, charged: 10, verified: []string{"a"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := &fakeFiles{fs: vfs.NewMem(), quarantined: map[string]bool{}, late: tc.late, onVerify: map[string]func(){}, broken: tc.broken}
			for name, content := range tc.files {
				if err := vfs.WriteFile(e.fs, "db/"+name, []byte(content)); err != nil {
					t.Fatal(err)
				}
			}
			for _, name := range tc.quarantined {
				e.quarantined[name] = true
			}
			for at, gone := range tc.retire {
				e.onVerify[at] = func() { e.fs.Remove("db/" + gone) }
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.cancel {
				cancel()
			}
			var lim countingLimiter
			res, err := ScrubFiles(ctx, &lim, e.list, e.verify, func(f ScrubFile) bool {
				if !InstallRepair(tc.backups, f.Name, checkImage, e.fs, "db/"+f.Name) {
					return false
				}
				delete(e.quarantined, f.Name)
				return true
			})
			if !errors.Is(err, tc.wantErr) || res != tc.want {
				t.Fatalf("ScrubFiles = %+v, %v; want %+v, %v", res, err, tc.want, tc.wantErr)
			}
			if lim.n.Load() != tc.charged {
				t.Errorf("limiter charged %d bytes, want %d", lim.n.Load(), tc.charged)
			}
			if fmt.Sprint(e.verified) != fmt.Sprint(tc.verified) {
				t.Errorf("verified %v, want %v", e.verified, tc.verified)
			}
			for name, want := range tc.after {
				if got, _ := vfs.ReadFile(e.fs, "db/"+name); string(got) != want {
					t.Errorf("db/%s = %q after the pass, want %q", name, got, want)
				}
			}
		})
	}
}
