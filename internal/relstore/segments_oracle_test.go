package relstore_test

import (
	"math/rand"
	"testing"

	"qint/internal/datasets"
	"qint/internal/relstore"
)

// TestSegmentCodecMatchesV1Oracle pins the segments codec to the retired
// QSEGb1 codec kept in oracle_test.go (CheckSegmentCodecMatchesV1Oracle):
// on the binary fixture, on random catalogs of multi-byte values and values
// that normalise to nothing, and on GBCO with registered sources.
func TestSegmentCodecMatchesV1Oracle(t *testing.T) {
	t.Run("fixture", func(t *testing.T) {
		c := relstore.BinaryFixtureCatalog(t)
		c.BuildValueIndex(1)
		relstore.CheckSegmentCodecMatchesV1Oracle(t, c)
	})
	t.Run("random", func(t *testing.T) {
		r := rand.New(rand.NewSource(43))
		for range 30 {
			c := relstore.RandomIndexCatalog(t, r)
			c.BuildValueIndex(2)
			relstore.CheckSegmentCodecMatchesV1Oracle(t, c)
		}
	})
	t.Run("gbco+sources", func(t *testing.T) {
		synth, _ := datasets.SyntheticValueCorpus(24, 80, 1)
		c := relstore.NewCatalog()
		for _, tb := range append(datasets.GBCO().Tables, synth...) {
			if err := c.AddTable(tb); err != nil {
				t.Fatal(err)
			}
		}
		c.BuildValueIndex(2)
		relstore.CheckSegmentCodecMatchesV1Oracle(t, c)
	})
}
