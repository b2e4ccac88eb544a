package lsm

import (
	"fmt"
	"strings"
	"testing"

	"p2kvs/internal/manifest"

	"p2kvs/internal/ikey"
	"p2kvs/internal/sstable"
	"p2kvs/internal/vfs"
	"p2kvs/internal/wal"
)

// TestForensicRecovery is a debugging aid kept as a regression net: it
// reproduces TestRecoveryAfterFlushAndCompaction and, on failure, dumps
// where every version of the failing key lives (WAL vs SSTs vs manifest).
func TestForensicRecovery(t *testing.T) {
	fs := vfs.NewMem()
	opts := smallOpts(fs)
	opts.WALSync = wal.PolicyCommit
	db, _ := Open("db", opts)
	fill(t, db, 2000, 1)
	db.CompactAll()
	fill(t, db, 300, 2)
	db.mu.Lock()
	ver1 := db.vs.Current()
	pre := ""
	for lvl, files := range ver1.Levels {
		for _, fm := range files {
			pre += describeFile(lvl, fm)
		}
	}
	pre += describe2("LogNum", db.vs.LogNum) + describe2("NextFile", db.vs.NextFile)
	db.mu.Unlock()
	fs.Crash()
	db.Close()
	fs.Restart()

	db2, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	key := "key000143"
	v, err := db2.Get([]byte(key))
	if err == nil && strings.HasPrefix(string(v), "r2-") {
		return // healthy run
	}
	t.Logf("Get(%s) = %q, %v — dumping state", key, v, err)
	t.Logf("pre-crash db1 state:\n%s", pre)
	names, _ := fs.List("db")
	for _, n := range names {
		full := "db/" + n
		switch {
		case strings.HasSuffix(n, ".log"):
			recs, rerr := wal.ReadAll(fs, full)
			count := 0
			for _, r := range recs {
				_, ops, _ := decodeBatchPayload(r.Payload)
				for _, op := range ops {
					if string(op.Key) == key {
						t.Logf("  %s: %s = %q", n, key, op.Value)
						count++
					}
				}
			}
			t.Logf("  %s: %d records total, err=%v, hits=%d", n, len(recs), rerr, count)
		case strings.HasSuffix(n, ".sst"):
			f, _ := fs.Open(full)
			r, oerr := sstable.OpenNamed(f, nil, 0, "")
			if oerr != nil {
				t.Logf("  %s: open err %v", n, oerr)
				continue
			}
			var h sstable.Hit
			if r.Find([]byte(key), ikey.MaxSeq, &h); h.Found {
				t.Logf("  %s: %s = %q seq=%d deleted=%v (entries=%d)", n, key, h.Val, h.Seq, h.Deleted, r.Entries())
			}
			r.Close()
		}
	}
	db2.mu.Lock()
	ver := db2.vs.Current()
	for lvl, files := range ver.Levels {
		for _, fm := range files {
			t.Logf("  manifest L%d: file %06d [%q..%q] entries=%d", lvl, fm.Num,
				ikey.UserKey(fm.Smallest), ikey.UserKey(fm.Largest), fm.Entries)
		}
	}
	t.Logf("  LogNum=%d NextFile=%d LastSeq=%d memLen=%d", db2.vs.LogNum, db2.vs.NextFile, db2.vs.LastSeq, db2.memH.mem.Len())
	db2.mu.Unlock()
	t.Fatal("round-2 value lost")
}

func describeFile(lvl int, fm *manifest.FileMeta) string {
	return "  L" + itoa(lvl) + ": file " + itoa(int(fm.Num)) + " [" + string(ikey.UserKey(fm.Smallest)) + ".." + string(ikey.UserKey(fm.Largest)) + "] entries=" + itoa(fm.Entries) + "\n"
}

func describe2(name string, v uint64) string { return "  " + name + "=" + itoa(int(v)) + "\n" }

func itoa(v int) string { return fmt.Sprintf("%d", v) }
