package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick_all.txt from a fresh run")

// TestQuickTablesPinned runs `benchsuite -scale quick all` and diffs its
// tables against the committed copy, so any change to a reported number
// shows up as a reviewed diff of that file. The staging-cache footer is
// left out: it depends on the host and on earlier runs in the process.
func TestQuickTablesPinned(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scale", "quick", "all"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	got, footer, ok := strings.Cut(stdout.String(), "\n"+cacheFooter)
	if !ok || strings.Count(footer, "\n") != 1 {
		t.Fatalf("output does not end in a single staging-cache line:\n%s", stdout.String())
	}
	got += "\n"
	path := filepath.Join("testdata", "quick_all.txt")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("line %d of %s:\n got %q\nwant %q\n(-update rewrites the file after review)", i+1, path, gl[i], wl[i])
		}
	}
	t.Fatalf("%d lines, %s has %d (-update rewrites the file after review)", len(gl), path, len(wl))
}
