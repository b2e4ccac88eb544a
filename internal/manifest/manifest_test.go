package manifest

import (
	"testing"
	"testing/quick"

	"p2kvs/internal/ikey"
	"p2kvs/internal/vfs"
)

func fm(num uint64, lo, hi string) FileMeta {
	return FileMeta{
		Num: num, Size: 1000, Entries: 10,
		Smallest: ikey.Make([]byte(lo), 1, ikey.KindSet),
		Largest:  ikey.Make([]byte(hi), 1, ikey.KindSet),
	}
}

func TestEditEncodeDecodeRoundTrip(t *testing.T) {
	e := &VersionEdit{
		HasLogNum: true, LogNum: 42,
		HasNextFile: true, NextFile: 100,
		HasLastSeq: true, LastSeq: 999,
		Added:   []AddedFile{{Level: 1, Meta: fm(7, "a", "m")}, {Level: 0, Meta: fm(8, "b", "z")}},
		Deleted: []DeletedFile{{Level: 2, Num: 3}},
	}
	got, err := DecodeEdit(e.encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.LogNum != 42 || got.NextFile != 100 || got.LastSeq != 999 {
		t.Fatalf("scalar fields: %+v", got)
	}
	if len(got.Added) != 2 || got.Added[0].Meta.Num != 7 || got.Added[1].Level != 0 {
		t.Fatalf("added: %+v", got.Added)
	}
	if len(got.Deleted) != 1 || got.Deleted[0].Num != 3 {
		t.Fatalf("deleted: %+v", got.Deleted)
	}
	if string(ikey.UserKey(got.Added[0].Meta.Smallest)) != "a" {
		t.Fatalf("smallest = %q", got.Added[0].Meta.Smallest)
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := DecodeEdit([]byte{0xff, 0xff}); err == nil {
		t.Fatal("garbage must not decode")
	}
}

func TestQuickEditRoundTrip(t *testing.T) {
	fn := func(logNum, nextFile, lastSeq uint64, levels []uint8, nums []uint64) bool {
		e := &VersionEdit{
			HasLogNum: true, LogNum: logNum,
			HasNextFile: true, NextFile: nextFile,
			HasLastSeq: true, LastSeq: lastSeq,
		}
		n := len(levels)
		if len(nums) < n {
			n = len(nums)
		}
		for i := 0; i < n; i++ {
			e.Deleted = append(e.Deleted, DeletedFile{Level: int(levels[i] % NumLevels), Num: nums[i]})
		}
		got, err := DecodeEdit(e.encode())
		if err != nil {
			return false
		}
		if got.LogNum != logNum || got.NextFile != nextFile || got.LastSeq != lastSeq {
			return false
		}
		if len(got.Deleted) != n {
			return false
		}
		for i := range got.Deleted {
			if got.Deleted[i] != e.Deleted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSetApplyAndPersist(t *testing.T) {
	fs := vfs.NewMem()
	s, err := Open(fs, "db")
	if err != nil {
		t.Fatal(err)
	}
	if n := s.NewFileNum(); n != 1 {
		t.Fatalf("first file num = %d", n)
	}

	err = s.LogAndApply(&VersionEdit{
		HasLastSeq: true, LastSeq: 10,
		HasNextFile: true, NextFile: 5,
		Added: []AddedFile{{Level: 0, Meta: fm(2, "a", "m")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = s.LogAndApply(&VersionEdit{
		Added:   []AddedFile{{Level: 1, Meta: fm(3, "a", "z")}},
		Deleted: []DeletedFile{{Level: 0, Num: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	v := s.Current()
	if len(v.Levels[0]) != 0 || len(v.Levels[1]) != 1 || v.Levels[1][0].Num != 3 {
		t.Fatalf("levels: L0=%d L1=%d", len(v.Levels[0]), len(v.Levels[1]))
	}
	files := 0
	for _, l := range v.Levels {
		files += len(l)
	}
	if files != 1 || v.LevelSize(1) != 1000 {
		t.Fatalf("files=%d LevelSize=%d", files, v.LevelSize(1))
	}
	s.Close()

	// Reopen: state must be reconstructed.
	s2, err := Open(fs, "db")
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.LastSeq != 10 {
		t.Fatalf("LastSeq = %d", s2.LastSeq)
	}
	if s2.NextFile < 5 {
		t.Fatalf("NextFile = %d", s2.NextFile)
	}
	v2 := s2.Current()
	if len(v2.Levels[1]) != 1 || v2.Levels[1][0].Num != 3 {
		t.Fatal("level layout lost across reopen")
	}
}

func TestLevelOrdering(t *testing.T) {
	fs := vfs.NewMem()
	s, _ := Open(fs, "db")
	defer s.Close()
	s.LogAndApply(&VersionEdit{Added: []AddedFile{
		{Level: 1, Meta: fm(5, "m", "r")},
		{Level: 1, Meta: fm(6, "a", "c")},
		{Level: 0, Meta: fm(9, "a", "z")},
		{Level: 0, Meta: fm(7, "a", "z")},
	}})
	v := s.Current()
	// L1 sorted by smallest key.
	if v.Levels[1][0].Num != 6 || v.Levels[1][1].Num != 5 {
		t.Fatalf("L1 order: %d,%d", v.Levels[1][0].Num, v.Levels[1][1].Num)
	}
	// L0 sorted by file number (age).
	if v.Levels[0][0].Num != 7 || v.Levels[0][1].Num != 9 {
		t.Fatalf("L0 order: %d,%d", v.Levels[0][0].Num, v.Levels[0][1].Num)
	}
}

func TestOverlaps(t *testing.T) {
	f := fm(1, "c", "f")
	cases := []struct {
		lo, hi string
		want   bool
	}{
		{"a", "b", false},
		{"a", "c", true},
		{"d", "e", true},
		{"f", "z", true},
		{"g", "z", false},
	}
	for _, c := range cases {
		if got := f.Overlaps([]byte(c.lo), []byte(c.hi)); got != c.want {
			t.Fatalf("Overlaps(%q,%q) = %v, want %v", c.lo, c.hi, got, c.want)
		}
	}
	if !f.Overlaps(nil, nil) {
		t.Fatal("open bounds must overlap")
	}
}

func TestVersionCloneIsolation(t *testing.T) {
	fs := vfs.NewMem()
	s, _ := Open(fs, "db")
	defer s.Close()
	s.LogAndApply(&VersionEdit{Added: []AddedFile{{Level: 1, Meta: fm(1, "a", "b")}}})
	v1 := s.Current()
	s.LogAndApply(&VersionEdit{Deleted: []DeletedFile{{Level: 1, Num: 1}}})
	// v1 must still see the file (immutable snapshot).
	if len(v1.Levels[1]) != 1 {
		t.Fatal("old version mutated by later edit")
	}
	if len(s.Current().Levels[1]) != 0 {
		t.Fatal("delete not applied")
	}
}
