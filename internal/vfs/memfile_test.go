package vfs

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"p2kvs/internal/raceflag"
)

// chunkEdges are the offsets where a MemFS chunk begins: 4 K, 12 K, 28 K …
// while the chunks double, 252 K where they stop doubling, then every
// 256 KiB.
var chunkEdges = []int{0, 4 << 10, 12 << 10, 28 << 10, 60 << 10, 124 << 10, 252 << 10, 508 << 10, 764 << 10, 1020 << 10}

// pattern is the model's write content: a write of n bytes starting at a
// different offset each time, so no two writes look alike.
var pattern = func() []byte {
	p := make([]byte, 1<<20+256)
	for i := range p {
		p[i] = byte(i % 251)
	}
	return p
}()

func TestLocateMatchesChunkEdges(t *testing.T) {
	for k, edge := range chunkEdges {
		if gk, pos := locate(edge); gk != k || pos != 0 {
			t.Fatalf("locate(%d) = (%d, %d), want (%d, 0)", edge, gk, pos, k)
		}
		if k > 0 {
			if gk, pos := locate(edge - 1); gk != k-1 || pos != chunkCap(k-1)-1 {
				t.Fatalf("locate(%d) = (%d, %d), want (%d, %d)", edge-1, gk, pos, k-1, chunkCap(k-1)-1)
			}
		}
	}
}

// memFileModel replays the operations prog encodes against one MemFS file
// and a flat []byte holding what the file should contain, checking the two
// agree after every step: appends of 0 B to 1 MiB, WriteAt overwrites and
// gaps around chunk edges, ReadAt across edges and past EOF, Sync, Crash +
// Restart, and a Link alias read back through the other name after a crash.
// The file is kept under maxSize so a long program stays cheap.
func memFileModel(t testing.TB, prog []byte) {
	const maxSize = 3 << 20
	sizes := []int{0, 1, 7, 100, 4095, 4096, 4097, 8 << 10, 64 << 10, 255 << 10, 1 << 20}
	fs := NewMem()
	f, err := fs.Create("db/f")
	if err != nil {
		t.Fatal(err)
	}
	var model []byte
	durable := 0
	seq := byte(0)
	next := func() int {
		if len(prog) == 0 {
			return 0
		}
		b := int(prog[0])
		prog = prog[1:]
		return b
	}
	fill := func(n int) []byte {
		seq++
		return append([]byte(nil), pattern[int(seq)%251:][:n]...)
	}
	// offset picks a point near a chunk edge, near the end of the file, or
	// past it.
	offset := func() int {
		delta := next()%64 - 32
		var base int
		switch sel := next(); {
		case sel%3 == 0:
			base = chunkEdges[sel/3%len(chunkEdges)]
		case sel%3 == 1:
			base = len(model)
		default:
			base = len(model) * (sel / 3) / 85
		}
		return max(0, base+delta)
	}
	check := func(step string, file File) {
		t.Helper()
		if sz, _ := file.Size(); sz != int64(len(model)) {
			t.Fatalf("%s: size %d, want %d", step, sz, len(model))
		}
		got, err := ReadFile(fs, "db/f")
		if err != nil || !bytes.Equal(got, model) {
			t.Fatalf("%s: contents differ from the model (len %d vs %d, err %v)", step, len(got), len(model), err)
		}
	}
	for steps := 0; len(prog) > 0; steps++ {
		switch op := next() % 6; op {
		case 0: // Write
			p := fill(sizes[next()%len(sizes)] + next()%3)
			if len(model)+len(p) > maxSize {
				continue
			}
			if n, err := f.Write(p); n != len(p) || err != nil {
				t.Fatalf("step %d: Write(%d) = %d, %v", steps, len(p), n, err)
			}
			model = append(model, p...)
		case 1: // WriteAt
			off, p := offset(), fill(sizes[next()%len(sizes)]+next()%3)
			if off+len(p) > maxSize {
				continue
			}
			if n, err := f.WriteAt(p, int64(off)); n != len(p) || err != nil {
				t.Fatalf("step %d: WriteAt(%d, %d) = %d, %v", steps, len(p), off, n, err)
			}
			if end := off + len(p); end > len(model) {
				model = append(model, make([]byte, end-len(model))...)
			}
			copy(model[off:], p)
			durable = min(durable, off)
		case 2: // ReadAt
			off, buf := offset(), make([]byte, sizes[next()%len(sizes)]+next()%3)
			n, err := f.ReadAt(buf, int64(off))
			wantN, wantErr := 0, error(nil)
			if len(buf) > 0 {
				if off < len(model) {
					wantN = min(len(buf), len(model)-off)
				}
				if wantN < len(buf) {
					wantErr = io.EOF
				}
			}
			if n != wantN || err != wantErr {
				t.Fatalf("step %d: ReadAt(len %d, off %d) of %d bytes = %d, %v; want %d, %v",
					steps, len(buf), off, len(model), n, err, wantN, wantErr)
			}
			if !bytes.Equal(buf[:n], model[min(off, len(model)):][:n]) {
				t.Fatalf("step %d: ReadAt(len %d, off %d) returned other bytes", steps, len(buf), off)
			}
		case 3: // Sync
			if err := f.Sync(); err != nil {
				t.Fatalf("step %d: Sync: %v", steps, err)
			}
			durable = len(model)
		case 4, 5: // Crash and Restart; op 5 first links an alias and reads it back
			alias := op == 5
			if alias {
				if err := fs.Link("db/f", "snap/f"); err != nil {
					t.Fatal(err)
				}
			}
			fs.Crash()
			if _, err := f.Write([]byte("x")); err == nil {
				t.Fatalf("step %d: Write succeeded on a crashed filesystem", steps)
			}
			if _, err := f.WriteAt([]byte("x"), 0); err == nil {
				t.Fatalf("step %d: WriteAt succeeded on a crashed filesystem", steps)
			}
			if err := f.Sync(); err == nil {
				t.Fatalf("step %d: Sync succeeded on a crashed filesystem", steps)
			}
			fs.Restart()
			model = model[:durable]
			if alias {
				got, err := ReadFile(fs, "snap/f")
				if err != nil || !bytes.Equal(got, model) {
					t.Fatalf("step %d: alias after crash (%d bytes, %v) differs from the %d durable ones", steps, len(got), err, len(model))
				}
				if err := fs.Remove("snap/f"); err != nil {
					t.Fatal(err)
				}
			}
			check("after crash", f)
		}
	}
	check("at the end", f)
}

func TestMemFileModel(t *testing.T) {
	runs := 200
	if testing.Short() || raceflag.Enabled { // one goroutine: the detector only slows the copies
		runs = 40
	}
	for seed := 0; seed < runs; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		prog := make([]byte, 120)
		rng.Read(prog)
		memFileModel(t, prog)
	}
}

func FuzzMemFile(f *testing.F) {
	f.Add([]byte{0, 8, 0, 3, 1, 0, 18, 7, 0, 2, 2, 0, 18, 4, 0, 4})
	f.Add([]byte{0, 10, 0, 0, 10, 1, 3, 1, 32, 3, 5, 1, 5, 32, 30, 2, 2, 32, 21, 8, 0})
	f.Add([]byte{0, 9, 2, 3, 1, 32, 1, 0, 5, 0, 5, 2, 32, 2, 10, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 256 {
			prog = prog[:256]
		}
		memFileModel(t, prog)
	})
}

// TestCrashFencesInFlightWrites: a writer appending while Crash runs must
// either land before the truncation (and be dropped by it) or fail — never
// append to the file after Crash has returned. The fence is the frozen
// check under the file's own lock.
func TestCrashFencesInFlightWrites(t *testing.T) {
	runs := 3000
	if testing.Short() {
		runs = 300
	}
	for i := 0; i < runs; i++ {
		fs := NewMem()
		f, _ := fs.Create("wal")
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			rec := []byte{1}
			for {
				select {
				case <-stop:
					return
				default:
					f.Write(rec)
				}
			}
		}()
		for sz, _ := f.Size(); sz == 0; sz, _ = f.Size() {
			runtime.Gosched()
		}
		fs.Crash()
		crashed, _ := f.Size()
		close(stop)
		<-done
		if after, _ := f.Size(); after != crashed {
			t.Fatalf("run %d: the file grew from %d to %d bytes after Crash returned", i, crashed, after)
		}
	}
}

// TestMemFSAppendAllocs pins the append: a 2 MiB file written in 4 KiB
// writes allocates its 14 chunks and nothing else, within 1.2x the file's
// bytes. It counts only allocations made through the file's own code — the
// heap profile's records, sampled at every allocation for the window, whose
// stack passes through a memFile or memFileData method — not the process's:
// a window of 16 MiB of appends spans garbage-collection cycles, and what
// the runtime and the testing package allocate meanwhile is not the file's.
func TestMemFSAppendAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation pins are not meaningful under the race detector")
	}
	const size, files = 2 << 20, 8
	fs := NewMem()
	var fl []File
	for i := 0; i < files; i++ {
		f, err := fs.Create("t/" + string(rune('a'+i)))
		if err != nil {
			t.Fatal(err)
		}
		fl = append(fl, f)
	}
	buf := make([]byte, 4<<10)
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	beforeObjs, beforeBytes := fileAllocs()
	for _, f := range fl {
		for n := 0; n < size; n += len(buf) {
			if _, err := f.Write(buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	afterObjs, afterBytes := fileAllocs()
	allocs := (afterObjs - beforeObjs) / files
	ratio := float64(afterBytes-beforeBytes) / files / size
	if allocs > 14 || ratio > 1.2 {
		t.Fatalf("a 2 MiB file in 4 KiB writes: %d allocations, %.2fx its size allocated; want <= 14 and <= 1.2x", allocs, ratio)
	}
	if allocs < 14 {
		t.Fatalf("a 2 MiB file in 4 KiB writes: %d allocations through the file's code, want its 14 chunks: the profile no longer sees them", allocs)
	}
}

// fileAllocs sums the objects and bytes the heap profile records as
// allocated, since the process started, by stacks through an in-memory
// file's methods. A record is published by the garbage collection cycle
// after its allocation's, hence the two.
func fileAllocs() (objects, bytes int64) {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	for n, _ := runtime.MemProfile(nil, true); ; {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	for _, r := range recs {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if strings.HasPrefix(f.Function, "p2kvs/internal/vfs.(*memFile") {
				objects += r.AllocObjects
				bytes += r.AllocBytes
				break
			}
			if !more {
				break
			}
		}
	}
	return objects, bytes
}

// BenchmarkMemFSAppend writes a 2 MiB file (an SSTable's size) in 4 KiB
// writes, the way a table builder and a WAL append.
func BenchmarkMemFSAppend(b *testing.B) {
	fs := NewMem()
	buf := make([]byte, 4<<10)
	b.SetBytes(2 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, _ := fs.Create("t")
		for n := 0; n < 2<<20; n += len(buf) {
			f.Write(buf)
		}
		f.Close()
		fs.Remove("t")
	}
}

// BenchmarkMemFSReadAt reads a data block (4 KiB and a 5-byte trailer) at
// random offsets of 69 2 MiB files, ~144 MB: a block-cache miss's copy.
func BenchmarkMemFSReadAt(b *testing.B) {
	const nfiles, size, block = 69, 2 << 20, 4<<10 + 5
	fs := NewMem()
	chunk := make([]byte, 64<<10)
	var fl []File
	for i := 0; i < nfiles; i++ {
		f, _ := fs.Create("t/" + string(rune('A'+i)))
		for n := 0; n < size; n += len(chunk) {
			f.Write(chunk)
		}
		fl = append(fl, f)
	}
	rng := rand.New(rand.NewSource(1))
	offs := make([]int64, 4096)
	for i := range offs {
		offs[i] = rng.Int63n(size - block)
	}
	buf := make([]byte, block)
	b.SetBytes(block)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fl[i%nfiles].ReadAt(buf, offs[i%len(offs)]); err != nil && !errors.Is(err, io.EOF) {
			b.Fatal(err)
		}
	}
}
