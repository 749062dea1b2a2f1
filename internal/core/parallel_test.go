package core

import (
	"bytes"
	"runtime"
	"testing"
)

// TestEngineWidthFollowsGOMAXPROCS pins where the width comes from: New
// reads it from GOMAXPROCS, and a snapshot restored under
// another GOMAXPROCS takes the restoring process's width with every view
// unchanged.
func TestEngineWidthFollowsGOMAXPROCS(t *testing.T) {
	q := fixtureQAtWidth(t, 3)
	if q.width != 3 {
		t.Fatalf("width = %d at GOMAXPROCS 3", q.width)
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
	if q2.width != 5 {
		t.Errorf("loaded width = %d, want 5", q2.width)
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
