package qint

// Smoke coverage for cmd/ and examples/: every binary must compile, and the
// quickstart example must run end-to-end against the bundled corpus. These
// shell out to the go tool, so they are skipped when it is unavailable
// (they always run in CI, which installs the toolchain).

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func goTool(t *testing.T) string {
	t.Helper()
	path, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	return path
}

// TestBuildBinaries compiles all four commands to a throwaway directory.
func TestBuildBinaries(t *testing.T) {
	gt := goTool(t)
	tmp := t.TempDir()
	for _, name := range []string{"qbench", "qgen", "qserver", "qshell"} {
		cmd := exec.Command(gt, "build", "-o", filepath.Join(tmp, name), "./cmd/"+name)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Errorf("go build ./cmd/%s: %v\n%s", name, err, out)
		}
	}
}

// TestBuildExamples compiles every example program.
func TestBuildExamples(t *testing.T) {
	gt := goTool(t)
	tmp := t.TempDir()
	examples, err := filepath.Glob("examples/*/main.go")
	if err != nil || len(examples) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	for _, main := range examples {
		dir := filepath.Dir(main)
		name := filepath.Base(dir)
		cmd := exec.Command(gt, "build", "-o", filepath.Join(tmp, name), "./"+dir)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Errorf("go build ./%s: %v\n%s", dir, err, out)
		}
	}
}

// TestQuickstartEndToEnd runs examples/quickstart and checks it walks the
// whole pipeline: alignment, a ranked view, and provenance SQL.
func TestQuickstartEndToEnd(t *testing.T) {
	gt := goTool(t)
	out, err := exec.Command(gt, "run", "./examples/quickstart").CombinedOutput()
	if err != nil {
		t.Fatalf("go run ./examples/quickstart: %v\n%s", err, out)
	}
	got := string(out)
	for _, want := range []string{
		"candidate alignments",
		"top-",
		"columns:",
		"generated SQL",
		"SELECT ",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("quickstart output missing %q:\n%s", want, got)
		}
	}
}

// TestQgenDump runs the corpus dumper and sanity-checks the JSON shape.
func TestQgenDump(t *testing.T) {
	gt := goTool(t)
	out, err := exec.Command(gt, "run", "./cmd/qgen", "-dataset", "gbco", "-rows", "1").CombinedOutput()
	if err != nil {
		t.Fatalf("go run ./cmd/qgen: %v\n%s", err, out)
	}
	got := string(out)
	for _, want := range []string{`"dataset"`, `"gbco"`, `"tables"`, `"foreign_keys"`} {
		if !strings.Contains(got, want) {
			t.Errorf("qgen output missing %q", want)
		}
	}
}

// TestQshellSaveLoad drives qshell through a save/load round trip: a view,
// save to a file, load it back, and read the restored view's rows.
func TestQshellSaveLoad(t *testing.T) {
	gt := goTool(t)
	snap := filepath.Join(t.TempDir(), "q.snap")
	cmd := exec.Command(gt, "run", "./cmd/qshell")
	cmd.Stdin = strings.NewReader("query 'GO:0001000' 'fam_0'\nsave " + snap + "\nload " + snap + "\nrows 2\nquit\n")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run ./cmd/qshell: %v\n%s", err, out)
	}
	got := string(out)
	_, afterLoad, ok := strings.Cut(got, "loaded "+snap+": ")
	if !ok || !strings.Contains(afterLoad, " 1 views") {
		t.Fatalf("qshell did not report loading 1 view:\n%s", got)
	}
	if !strings.Contains(afterLoad, "[0] cost=") {
		t.Errorf("restored view printed no rows:\n%s", got)
	}
	if strings.Contains(got, "error:") {
		t.Errorf("qshell reported an error:\n%s", got)
	}
}
