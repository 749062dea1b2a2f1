package core

import (
	"bytes"
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
