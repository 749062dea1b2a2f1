package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestPaperFiguresGolden pins every deterministic table and figure to the
// bytes in testdata/<exp>.golden, so a change that moves any reported
// number fails here rather than in a by-hand comparison. fig6 prints
// wall-clock times and has no golden. After an intended change, regenerate
// a golden with
//
//	go run ./cmd/qbench -exp fig10 > cmd/qbench/testdata/fig10.golden
func TestPaperFiguresGolden(t *testing.T) {
	for _, e := range experiments {
		if e.name == "fig6" {
			continue
		}
		t.Run(e.name, func(t *testing.T) {
			if e.name == "fig7" && testing.Short() {
				t.Skip("fig7 runs 40 registrations per strategy twice; skipped in -short mode")
			}
			want, err := os.ReadFile(filepath.Join("testdata", e.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := e.fn(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s output differs from testdata/%s.golden\ngot:\n%s\nwant:\n%s", e.name, e.name, got.Bytes(), want)
			}
		})
	}
}
