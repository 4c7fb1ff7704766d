package main

import (
	"bytes"
	"strings"
	"testing"

	"mlcache/internal/experiments"
)

func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("paper %s: %v", strings.Join(args, " "), err)
	}
	return out.String()
}

// untimed drops the "---- (" lines, which carry wall-clock times.
func untimed(s string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(s, "\n") {
		if !strings.HasPrefix(line, "---- (") {
			b.WriteString(line)
		}
	}
	return b.String()
}

// sections splits -all output at its "==== id: title ====" headers.
func sections(s string) map[string]string {
	out := map[string]string{}
	var id string
	for _, line := range strings.SplitAfter(s, "\n") {
		if rest, ok := strings.CutPrefix(line, "==== "); ok {
			id, _, _ = strings.Cut(rest, ":")
		}
		out[id] += line
	}
	return out
}

// TestFigMatchesAll: each experiment run alone prints exactly its section
// of -all. Alone, an experiment computes what -all reads from the
// Context's memos (a sub-grid of another figure's surface, the ablation
// tables of one shared sweep), so this pins that the memos do not change
// a number.
func TestFigMatchesAll(t *testing.T) {
	all := sections(untimed(runOK(t, "-all", "-refs", "20000")))
	exps := experiments.All()
	if len(all) != len(exps) {
		t.Fatalf("-all printed %d sections, want %d", len(all), len(exps))
	}
	for _, e := range exps {
		got := untimed(runOK(t, "-fig", e.ID, "-refs", "20000"))
		if got != all[e.ID] {
			t.Errorf("-fig %s differs from its -all section:\n%s\nwant:\n%s", e.ID, got, all[e.ID])
		}
	}
}

func TestList(t *testing.T) {
	out := runOK(t, "-list")
	for _, e := range experiments.All() {
		if !strings.Contains(out, e.ID+" ") {
			t.Errorf("-list lacks %s:\n%s", e.ID, out)
		}
	}
}

func TestRefusals(t *testing.T) {
	for _, args := range [][]string{nil, {"-fig", "9-9"}} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("paper %s: no error", strings.Join(args, " "))
		}
	}
}
