package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMixFilesPinned: the 300k-reference mix, written through the
// artifact codec (in place, from an arena) and through the binary codec
// (streamed), is byte-identical to the files the generator wrote when it
// drew through *rand.Rand. CI's build-tools job checks the same artifact.
func TestMixFilesPinned(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		file, format, codec, want string
	}{
		{"mix.mlca", "artifact", "artifact", "a33628705c35726bda9f2da5c7e2c135d8fa6611f18057e5fa3be6a8b21c2efd"},
		{"mix.mlct", "auto", "binary", "4f673a2d7fe83c4477d67e0abb1e3cbafdf6ef2570edf35bf30c737aa3c83dfc"},
	} {
		path := filepath.Join(dir, c.file)
		var out bytes.Buffer
		if err := run([]string{"-kind", "mix", "-n", "300000", "-format", c.format, "-o", path}, &out); err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}
		if want := fmt.Sprintf("wrote 300000 references to %s (%s)\n", path, c.codec); out.String() != want {
			t.Errorf("%s: printed %q, want %q", c.file, out.String(), want)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != c.want {
			t.Errorf("%s: sha256 %s, want %s", c.file, got, c.want)
		}
	}
}

// TestRefusals: a missing -o, an unknown -kind or -format, and a mix of
// fewer than one reference in any codec are errors that write no file.
func TestRefusals(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-kind", "mix", "-n", "1000"}, "missing -o"},
		{[]string{"-kind", "nope", "-o", "k.trc"}, `unknown kind "nope"`},
		{[]string{"-format", "nope", "-o", "f.trc"}, `unknown format "nope"`},
		{[]string{"-kind", "mix", "-n", "0", "-o", "n.mlca"}, "-n 0"},
		{[]string{"-kind", "mix", "-n", "0", "-o", "n.mlct"}, "-n 0"},
		{[]string{"-kind", "mix", "-n", "-3", "-o", "n.trc"}, "-n -3"},
	} {
		args := underDir(c.args, dir)
		err := run(args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("tracegen %s: %v, want an error containing %q", strings.Join(c.args, " "), err, c.want)
		}
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Errorf("refused runs left %d file(s), first %s", len(left), left[0].Name())
	}
}

// underDir returns args with the value of -o placed under dir.
func underDir(args []string, dir string) []string {
	out := append([]string(nil), args...)
	for i := 0; i+1 < len(out); i++ {
		if out[i] == "-o" {
			out[i+1] = filepath.Join(dir, out[i+1])
		}
	}
	return out
}
