package pool

import (
	"errors"
	"testing"
)

// TestRunIndexed pins the pool's contract: full coverage of indexes,
// bounded workers, and lowest-index error selection (serial semantics).
func TestRunIndexed(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		done := make([]bool, 50)
		if err := Run(len(done), workers, func(i int) error {
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
	err := Run(20, 8, func(i int) error {
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

	if err := Run(0, 4, func(i int) error { return errLow }); err != nil {
		t.Fatalf("n=0: %v", err)
	}

	// Side effects must not depend on the worker count: even serially, an
	// early error must not stop later indexes from running (a failing
	// parallel Refresh rematerialises every view; serial must match).
	for _, workers := range []int{1, 4} {
		ran := make([]bool, 10)
		err := Run(len(ran), workers, func(i int) error {
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
