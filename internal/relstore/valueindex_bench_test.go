package relstore_test

import (
	"bytes"
	"testing"

	"qint/internal/datasets"
	"qint/internal/relstore"
)

// Micro-benchmarks of the value index's four paths — build, encode, decode
// and lookup — over GBCO plus 120 synthetic 200-row tables, about the
// catalog the ingest_restart benchmark workload grows. Run with
//
//	go test -run '^$' -bench ValueIndex -benchmem ./internal/relstore

// benchTables returns the benchmark catalog's tables and a keyword mix.
func benchTables() ([]*relstore.Table, []string) {
	synth, keywords := datasets.SyntheticValueCorpus(120, 200, 1)
	return append(datasets.GBCO().Tables, synth...), keywords
}

// unindexed returns a catalog of the tables with no value-index segment.
func unindexed(b *testing.B, tables []*relstore.Table) *relstore.Catalog {
	b.Helper()
	c := relstore.NewCatalog()
	for _, t := range tables {
		if err := c.AddTable(t); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

func benchCatalog(b *testing.B) (*relstore.Catalog, []string) {
	tables, keywords := benchTables()
	return unindexed(b, tables), keywords
}

func BenchmarkValueIndexBuild(b *testing.B) {
	tables, _ := benchTables()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := unindexed(b, tables)
		b.StartTimer()
		c.BuildValueIndex(1)
	}
}

func BenchmarkValueIndexSave(b *testing.B) {
	c, _ := benchCatalog(b)
	c.BuildValueIndex(1)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := c.SaveSegments(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

func BenchmarkValueIndexLoad(b *testing.B) {
	c, _ := benchCatalog(b)
	c.BuildValueIndex(1)
	var tables, segs bytes.Buffer
	if err := c.SaveBinary(&tables); err != nil {
		b.Fatal(err)
	}
	if err := c.SaveSegments(&segs); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(segs.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fresh, err := relstore.LoadCatalog(tables.Bytes())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := fresh.LoadSegments(segs.Bytes()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkValueIndexFindValues(b *testing.B) {
	c, keywords := benchCatalog(b)
	c.BuildValueIndex(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, kw := range keywords {
			c.FindValues(kw)
		}
	}
}
