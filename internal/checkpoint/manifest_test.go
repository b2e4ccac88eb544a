package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"

	"p2kvs/internal/vfs"
)

func sampleManifest() *Manifest {
	return &Manifest{
		Seq:         3,
		Workers:     2,
		Engine:      "rocksdb",
		Partitioner: "hash",
		GSN:         41,
		WorkerGSN:   []uint64{41, 17},
		TakenUnixNs: 1700000000000000000,
		BarrierNs:   125000,
		Files: []File{
			{Worker: 0, Path: "worker-0/000004.sst", Restore: "000004.sst", Size: 4096, CRC: 0xdeadbeef},
			{Worker: 1, Path: "worker-1/000002-ckpt000003.log", Restore: "000002.log", Size: 128, CRC: 0x1},
			{Worker: -1, Path: "TXNLOG-ckpt000003", Restore: "TXNLOG", Size: 18, CRC: 0x22},
		},
	}
}

// mustSeal seals v the way Write does, so a structurally damaged manifest
// reaches validation instead of bouncing off the checksum.
func mustSeal(v any) []byte {
	data, err := vfs.Seal(v)
	if err != nil {
		panic(err)
	}
	return data
}

func TestManifestRoundTrip(t *testing.T) {
	m := sampleManifest()
	got, err := Parse(mustSeal(m))
	if err != nil {
		t.Fatalf("Parse(Seal()): %v", err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", m, got)
	}
}

func TestManifestWriteLoadGC(t *testing.T) {
	fs := vfs.NewMem()
	m := sampleManifest()
	for _, f := range m.Files {
		if err := vfs.WriteFile(fs, "bak/"+f.Path, make([]byte, 4)); err != nil {
			t.Fatal(err)
		}
	}
	// Garbage from a crashed later attempt must be collected.
	if err := vfs.WriteFile(fs, "bak/worker-0/999999.sst", []byte("junk")); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(fs, "bak/TXNLOG-ckpt000099", []byte("junk")); err != nil {
		t.Fatal(err)
	}
	if err := Write(fs, "bak", m); err != nil {
		t.Fatal(err)
	}
	got, err := Load(fs, "bak")
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != m.Seq || len(got.Files) != len(m.Files) {
		t.Fatalf("loaded %+v", got)
	}
	GC(fs, "bak", m, nil)
	if fs.Exists("bak/worker-0/999999.sst") || fs.Exists("bak/TXNLOG-ckpt000099") {
		t.Fatal("GC left unreferenced files")
	}
	for _, f := range m.Files {
		if !fs.Exists("bak/" + f.Path) {
			t.Fatalf("GC removed referenced file %s", f.Path)
		}
	}
	if _, err := Load(fs, "empty"); !errors.Is(err, ErrNoManifest) {
		t.Fatalf("Load(empty) = %v", err)
	}
}

// TestGCSweepsRetiredWorkers checkpoints a two-worker set, then commits a
// one-worker manifest over it: worker-1's files belong to no committed
// manifest and must go, though worker-1 is no longer a worker.
func TestGCSweepsRetiredWorkers(t *testing.T) {
	fs := vfs.NewMem()
	prev := &Manifest{Seq: 1, Workers: 2, Engine: "x", WorkerGSN: []uint64{0, 0}, Files: []File{
		{Worker: 0, Path: "worker-0/a.sst", Restore: "a.sst", Size: 4},
		{Worker: 1, Path: "worker-1/b.sst", Restore: "b.sst", Size: 4},
	}}
	for _, f := range prev.Files {
		if err := vfs.WriteFile(fs, "bak/"+f.Path, make([]byte, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := Write(fs, "bak", prev); err != nil {
		t.Fatal(err)
	}
	m := &Manifest{Seq: 2, Workers: 1, Engine: "x", WorkerGSN: []uint64{0}, Files: prev.Files[:1]}
	if err := Write(fs, "bak", m); err != nil {
		t.Fatal(err)
	}
	GC(fs, "bak", m, prev)
	if fs.Exists("bak/worker-1/b.sst") {
		t.Fatal("GC kept a retired worker's file no manifest references")
	}
	if !fs.Exists("bak/worker-0/a.sst") {
		t.Fatal("GC removed a referenced file")
	}
}

// TestParseRejects locks in typed failure for a catalogue of damaged
// manifests, one case per rule: every case must return an error
// satisfying ErrCorrupt, and none may panic.
func TestParseRejects(t *testing.T) {
	valid := mustSeal(sampleManifest())
	mutated := func(edit func(m *Manifest)) []byte {
		m := sampleManifest()
		edit(m)
		return mustSeal(m)
	}
	raw := func(js string) []byte { return mustSeal(json.RawMessage(js)) }
	flipped := append([]byte(nil), valid...)
	flipped[20] ^= 0x04
	unterminated := append([]byte(nil), valid...)
	unterminated[8] = ' ' // the checksum line runs into the JSON
	const v1 = "p2kvs-checkpoint v1\nseq 1\nworkers 1\nengine x\nworker 0 gsn 0\n"
	textForm := func(text string) []byte {
		return []byte(text + fmt.Sprintf("crc %08x\n", crc32.Checksum([]byte(text), crc32.MakeTable(crc32.Castagnoli))))
	}
	cases := map[string][]byte{
		"empty":               nil,
		"truncated":           valid[:len(valid)/2],
		"trailing byte":       append(append([]byte(nil), valid...), '\n'),
		"bit flip":            flipped,
		"missing crc":         valid[9:],
		"no trailing newline": unterminated,
		"bad checksum":        append([]byte("0000000g"), valid[8:]...),
		"v1 text form":        textForm(v1),
		"bad magic":           textForm("p2kvs-checkpoint v9\nseq 1\nworkers 1\nengine x\nworker 0 gsn 0\n"),
		"unknown directive":   raw(`{"seq":1,"workers":1,"engine":"x","worker_gsn":[0],"bogus":1}`),
		"missing header":      raw(`{"seq":1}`),
		"unknown file field":  raw(`{"seq":1,"workers":1,"engine":"x","worker_gsn":[0],"files":[{"worker":0,"path":"a","restore":"b","mode":1}]}`),
		"seq not a number":    raw(`{"seq":"1","workers":1,"engine":"x","worker_gsn":[0]}`),
		"gsn negative":        raw(`{"seq":1,"workers":1,"engine":"x","gsn":-1,"worker_gsn":[0]}`),
		"file crc too wide":   raw(`{"seq":1,"workers":1,"engine":"x","worker_gsn":[0],"files":[{"worker":0,"path":"a","restore":"b","crc":4294967296}]}`),
		"not an object":       raw(`[1,2,3]`),
		"zero seq":            mutated(func(m *Manifest) { m.Seq = 0 }),
		"zero workers":        mutated(func(m *Manifest) { m.Workers, m.WorkerGSN = 0, nil }),
		"65536 workers":       mutated(func(m *Manifest) { m.Workers, m.WorkerGSN = 1<<16, make([]uint64, 1<<16) }),
		"no engine":           mutated(func(m *Manifest) { m.Engine = "" }),
		"sparse worker gsn":   mutated(func(m *Manifest) { m.WorkerGSN = m.WorkerGSN[:1] }),
		"extra worker gsn":    mutated(func(m *Manifest) { m.WorkerGSN = append(m.WorkerGSN, 9) }),
		"negative barrier":    mutated(func(m *Manifest) { m.BarrierNs = -1 }),
		"worker out of range": mutated(func(m *Manifest) { m.Files[0].Worker = 2 }),
		"worker below -1":     mutated(func(m *Manifest) { m.Files[0].Worker = -2 }),
		"negative size":       mutated(func(m *Manifest) { m.Files[0].Size = -1 }),
		"absolute path":       mutated(func(m *Manifest) { m.Files[0].Path = "/etc/passwd" }),
		"dotdot path":         mutated(func(m *Manifest) { m.Files[0].Path = "../../escape" }),
		"empty path":          mutated(func(m *Manifest) { m.Files[0].Path = "" }),
		"unsafe restore":      mutated(func(m *Manifest) { m.Files[0].Restore = "a//b" }),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			m, err := Parse(data)
			if err == nil {
				t.Fatalf("Parse accepted %q: %+v", name, m)
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err %v does not match ErrCorrupt", err)
			}
		})
	}
}
