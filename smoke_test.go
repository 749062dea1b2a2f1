package qint

// Smoke coverage for cmd/ and examples/: every binary must compile, and the
// quickstart example must run end-to-end against the bundled corpus. These
// shell out to the go tool, so they are skipped when it is unavailable
// (they always run in CI, which installs the toolchain).

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
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

// TestNewsourceEndToEnd runs examples/newsource and checks that it prints
// the registration's alignments, in ascending pair order so that two runs
// print the same text, and then the refreshed view's rows.
func TestNewsourceEndToEnd(t *testing.T) {
	gt := goTool(t)
	out, err := exec.Command(gt, "run", "./examples/newsource").CombinedOutput()
	if err != nil {
		t.Fatalf("go run ./examples/newsource: %v\n%s", err, out)
	}
	got := string(out)
	_, block, ok := strings.Cut(got, "discovered alignments:\n")
	if !ok {
		t.Fatalf("newsource printed no alignments block:\n%s", got)
	}
	block, view, _ := strings.Cut(block, "\nrefreshed view:\n")
	var pairs []string
	for _, line := range strings.Split(strings.TrimSpace(block), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			pairs = append(pairs, f[0])
		}
	}
	assertAscending(t, pairs, got)
	if !strings.Contains(view, "[0] cost=") {
		t.Errorf("refreshed view printed no rows:\n%s", got)
	}
}

// assertAscending fails unless pairs holds at least two alignment pairs in
// strictly ascending order.
func assertAscending(t *testing.T, pairs []string, out string) {
	t.Helper()
	if len(pairs) < 2 {
		t.Fatalf("want at least 2 alignments, got %d:\n%s", len(pairs), out)
	}
	for i := 1; i < len(pairs); i++ {
		if pairs[i-1] >= pairs[i] {
			t.Fatalf("alignments not in ascending order at %q, %q:\n%s", pairs[i-1], pairs[i], out)
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

// TestQshellRegisterSortsAlignments registers a source file against GBCO
// with the exhaustive aligner and checks that the alignments print in
// ascending pair order.
func TestQshellRegisterSortsAlignments(t *testing.T) {
	gt := goTool(t)
	src := filepath.Join(t.TempDir(), "jcat.json")
	const jcat = `{"source": "jcat", "tables": [{"name": "catalogue",
		"attributes": ["pubmed_id", "journal_title", "impact_factor"],
		"rows": [["PUB00003", "Diabetes", "7.7"], ["PUB00007", "Cell Metabolism", "27.7"],
			["PUB00011", "Endocrinology", "4.0"]]}]}`
	if err := os.WriteFile(src, []byte(jcat), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(gt, "run", "./cmd/qshell", "-dataset", "gbco")
	cmd.Stdin = strings.NewReader("register " + src + " exhaustive\nquit\n")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run ./cmd/qshell: %v\n%s", err, out)
	}
	got := string(out)
	if strings.Contains(got, "error:") {
		t.Fatalf("qshell reported an error:\n%s", got)
	}
	alignment := regexp.MustCompile(`(?m)^  [0-9.]+ (\S+~\S+)$`)
	var pairs []string
	for _, m := range alignment.FindAllStringSubmatch(got, -1) {
		pairs = append(pairs, m[1])
	}
	assertAscending(t, pairs, got)
}
