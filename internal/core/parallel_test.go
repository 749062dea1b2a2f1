package core

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
)

// TestEngineWidthFollowsGOMAXPROCS pins where the width comes from: New
// sizes the execution slots by GOMAXPROCS, and a snapshot restored under
// another GOMAXPROCS takes the restoring process's width with every view
// unchanged.
func TestEngineWidthFollowsGOMAXPROCS(t *testing.T) {
	q := fixtureQAtWidth(t, 3)
	if got := cap(q.execSem); got != 3 {
		t.Fatalf("execSem capacity = %d at width 3", got)
	}
	for _, probe := range fixtureProbes {
		if _, err := queryStr(q, probe); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := q.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var q2 *Q
	func() {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(5))
		var err error
		if q2, err = Load(bytes.NewReader(buf.Bytes()), q.Options()); err != nil {
			t.Fatal(err)
		}
	}()
	if got := cap(q2.execSem); got != 5 {
		t.Errorf("loaded execSem capacity = %d, want 5", got)
	}
	saved, loaded := q.Views(), q2.Views()
	if len(loaded) != len(saved) || len(saved) != len(fixtureProbes) {
		t.Fatalf("views: saved %d, loaded %d, want %d", len(saved), len(loaded), len(fixtureProbes))
	}
	for i := range saved {
		if want, got := fingerprintView(saved[i]), fingerprintView(loaded[i]); got != want {
			t.Errorf("view %d changed across a restore at another width\nsaved:\n%s\nloaded:\n%s", i, want, got)
		}
	}
}

// TestRunIndexed pins the pool helper's contract: full coverage of indexes,
// bounded workers, and lowest-index error selection (serial semantics).
func TestRunIndexed(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		done := make([]bool, 50)
		if err := runIndexed(len(done), workers, func(i int) error {
			done[i] = true
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, ok := range done {
			if !ok {
				t.Fatalf("workers=%d: index %d never ran", workers, i)
			}
		}
	}

	errLow, errHigh := errors.New("low"), errors.New("high")
	err := runIndexed(20, 8, func(i int) error {
		switch i {
		case 3:
			return errLow
		case 15:
			return errHigh
		}
		return nil
	})
	if err != errLow {
		t.Fatalf("error = %v, want lowest-index error %v", err, errLow)
	}

	if err := runIndexed(0, 4, func(i int) error { return errLow }); err != nil {
		t.Fatalf("n=0: %v", err)
	}

	// Side effects must not depend on the worker count: even serially, an
	// early error must not stop later indexes from running (a failing
	// parallel Refresh rematerialises every view; serial must match).
	for _, workers := range []int{1, 4} {
		ran := make([]bool, 10)
		err := runIndexed(len(ran), workers, func(i int) error {
			ran[i] = true
			if i == 2 {
				return errLow
			}
			return nil
		})
		if err != errLow {
			t.Fatalf("workers=%d: error = %v, want %v", workers, err, errLow)
		}
		for i, ok := range ran {
			if !ok {
				t.Fatalf("workers=%d: index %d skipped after error", workers, i)
			}
		}
	}
}
