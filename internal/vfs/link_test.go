package vfs

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestMemFSLinkAliasesData(t *testing.T) {
	fs := NewMem()
	if err := WriteFile(fs, "a/src", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Link("a/src", "b/dst"); err != nil {
		t.Fatalf("Link: %v", err)
	}
	got, err := ReadFile(fs, "b/dst")
	if err != nil || string(got) != "hello" {
		t.Fatalf("linked read = %q, %v", got, err)
	}
	// Two directory entries over one inode: appends through one name are
	// visible through the other.
	f, err := fs.Create("a/src")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("rewritten")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	// Create replaces the inode, so the link keeps the OLD content — the
	// property checkpointing relies on: once an immutable file is linked
	// into a backup, rewrites of the source name cannot touch the image.
	got, err = ReadFile(fs, "b/dst")
	if err != nil || string(got) != "hello" {
		t.Fatalf("after source rewrite, linked file = %q, %v (want original bytes)", got, err)
	}
}

func TestMemFSLinkErrors(t *testing.T) {
	fs := NewMem()
	if err := fs.Link("missing", "dst"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("link of missing file: %v", err)
	}
	if err := WriteFile(fs, "a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(fs, "b", []byte("y")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Link("a", "b"); !errors.Is(err, os.ErrExist) {
		t.Fatalf("link over existing file: %v", err)
	}
	fs.Crash()
	if err := fs.Link("a", "c"); err == nil {
		t.Fatal("link on crashed filesystem succeeded")
	}
	fs.Restart()
	if err := fs.Link("a", "c"); err != nil {
		t.Fatalf("link after restart: %v", err)
	}
}

func TestOSFSLinkSameFile(t *testing.T) {
	fs := NewOS()
	dir := t.TempDir()
	src := filepath.Join(dir, "sub", "src")
	dst := filepath.Join(dir, "other", "dst")
	if err := WriteFile(fs, src, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Link(src, dst); err != nil {
		t.Fatalf("Link: %v", err)
	}
	si, err := os.Stat(src)
	if err != nil {
		t.Fatal(err)
	}
	di, err := os.Stat(dst)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(si, di) {
		t.Fatal("OSFS.Link did not produce a hard link (different inodes)")
	}
}

func TestFaultFSLinkInjection(t *testing.T) {
	mem := NewMem()
	ffs := NewFaultSeeded(mem, 1)
	if err := WriteFile(ffs, "src", []byte("x")); err != nil {
		t.Fatal(err)
	}
	ffs.Inject(Rule{Op: OpLink, Prob: 1})
	if err := ffs.Link("src", "dst"); err == nil {
		t.Fatal("injected link fault did not fire")
	}
	ffs.ClearRules()
	if err := ffs.Link("src", "dst"); err != nil {
		t.Fatalf("link after clearing rules: %v", err)
	}
	if !mem.Exists("dst") {
		t.Fatal("link did not reach the underlying filesystem")
	}
}
