package relstore

// Test-only exports for the external test package, whose tests may import
// packages that import relstore (internal/datasets).
var (
	BinaryFixtureCatalog             = binaryFixtureCatalog
	RandomIndexCatalog               = randomIndexCatalog
	CheckSegmentCodecMatchesV1Oracle = checkSegmentCodecMatchesV1Oracle
)
