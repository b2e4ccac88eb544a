package manifest

import "testing"

// FuzzDecodeEdit: manifest records come off disk; arbitrary bytes must
// decode to an error or a well-formed edit, never panic.
func FuzzDecodeEdit(f *testing.F) {
	e := &VersionEdit{
		HasLogNum: true, LogNum: 3,
		Added:   []AddedFile{{Level: 1, Meta: fm(7, "a", "m")}},
		Deleted: []DeletedFile{{Level: 2, Num: 9}},
	}
	f.Add(e.encode())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x01})
	valid := e.encode()
	f.Add(valid[:len(valid)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeEdit(data)
		if err != nil {
			return
		}
		// Decoded edits must re-encode and re-decode stably.
		if _, err := DecodeEdit(got.encode()); err != nil {
			t.Fatalf("re-decode of re-encoded edit failed: %v", err)
		}
	})
}
