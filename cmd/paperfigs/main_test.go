package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestNegativeParallelExitsOne builds the real binary and checks that a
// negative -parallel is refused with exit 1 and a one-line paperfigs:
// message before any experiment runs (0 still means GOMAXPROCS).
func TestNegativeParallelExitsOne(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "paperfigs")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building paperfigs: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-quick", "-only", "E1", "-parallel", "-1")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	exitErr, ok := err.(*exec.ExitError)
	if !ok || exitErr.ExitCode() != 1 {
		t.Fatalf("exit error %v, want exit status 1", err)
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout %q, want empty", stdout.String())
	}
	if msg := stderr.String(); !strings.HasPrefix(msg, "paperfigs: ") || strings.Count(msg, "\n") != 1 {
		t.Errorf("stderr %q, want one paperfigs: line", msg)
	}
}
