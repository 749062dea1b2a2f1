// Package datasets builds the evaluation corpora of the paper's §5:
//
//   - InterProGO: the 8-table InterPro + GO schema of Figure 9 (28
//     attributes), with generated instance data whose cross-table value
//     overlap mirrors the real databases' link structure, the 8-edge gold
//     standard, and the documented two-keyword query workload.
//   - GBCO: an 18-relation / 187-attribute beta-cell-genomics-flavoured
//     corpus standing in for the proprietary GBCO database, with the
//     base-vs-expanded query-log trials of §5.1 (16 trials introducing 40
//     sources in total).
//   - Synthetic graph expansion for the Figure 8 scaling experiment.
//
// All data is generated deterministically from fixed seeds so experiments
// reproduce bit-for-bit.
package datasets

import (
	"fmt"
	"math/rand"

	"qint/internal/relstore"
)

// InterProGOCorpus bundles the InterPro-GO evaluation inputs.
type InterProGOCorpus struct {
	// Tables are the 8 relations of Figure 9. Their foreign keys are NOT
	// declared in the metadata: the paper removes that information so the
	// matchers must rediscover it (§5.2).
	Tables []*relstore.Table
	// Gold holds the 8 semantically meaningful alignment edges as
	// canonical "a~b" pairs (sorted attribute-reference strings).
	Gold map[string]bool
	// GoldPairs lists the same edges as attribute-reference pairs.
	GoldPairs [][2]relstore.AttrRef
	// Queries are 10 two-keyword queries drawn from the documented usage
	// patterns of the GO and InterPro databases (§5.2).
	Queries []string
}

// interproGOSizes control generated instance cardinalities.
const (
	nGoTerms  = 120
	nEntries  = 80
	nMethods  = 160
	nPubs     = 60
	nJournals = 15
)

// cellularComponents seed GO term names (and the keyword workload).
var cellularComponents = []string{
	"plasma membrane", "nucleus", "cytoplasm", "ribosome", "mitochondrion",
	"golgi apparatus", "vacuole", "chloroplast", "lysosome", "endosome",
	"cytoskeleton", "cell wall", "peroxisome", "centrosome", "nucleolus",
	"spindle", "chromatin", "kinetochore", "proteasome", "spliceosome",
}

var proteinFamilies = []string{
	"kringle domain", "zinc finger", "membrane protein", "helicase",
	"protein kinase", "homeobox", "immunoglobulin fold", "leucine zipper",
	"beta barrel", "coiled coil", "ankyrin repeat", "ww domain",
	"sh3 domain", "pleckstrin homology", "ring finger", "f-box",
}

var journalNames = []string{
	"Nature", "Science", "Cell", "Nucleic Acids Research",
	"Journal of Molecular Biology", "Bioinformatics", "Genome Research",
	"Proteins", "FEBS Letters", "EMBO Journal", "PLoS Biology",
	"Molecular Cell", "Structure", "Protein Science", "Genome Biology",
}

// InterProGO builds the corpus. Generation is deterministic.
func InterProGO() *InterProGOCorpus {
	r := rand.New(rand.NewSource(20100611)) // SIGMOD 2010 conference date

	goAcc := make([]string, nGoTerms)
	var goRows [][]string
	for i := range goAcc {
		goAcc[i] = fmt.Sprintf("GO:%07d", 1000+i)
		name := cellularComponents[i%len(cellularComponents)]
		if i >= len(cellularComponents) {
			name = fmt.Sprintf("%s part %d", name, i/len(cellularComponents))
		}
		goRows = append(goRows, []string{
			goAcc[i], name, pick(r, "cellular_component", "molecular_function", "biological_process"),
			pick(r, "f", "t"),
			fmt.Sprintf("definition of %s", name),
		})
	}

	entryAcc := make([]string, nEntries)
	var entryRows [][]string
	entryNames := make([]string, nEntries)
	for i := range entryAcc {
		entryAcc[i] = fmt.Sprintf("IPR%06d", 1+i)
		entryNames[i] = fmt.Sprintf("%s family %d", proteinFamilies[i%len(proteinFamilies)], i)
		entryRows = append(entryRows, []string{
			entryAcc[i], entryNames[i],
			fmt.Sprintf("fam_%d", i),
			pick(r, "Family", "Domain", "Repeat", "Active_site"),
			fmt.Sprintf("abstract for %s", entryNames[i]),
		})
	}

	// interpro2go: roughly two thirds of entries map to 1–2 GO terms. Link
	// tables referencing SUBSETS of the referenced key domain mirror real
	// FK data and let MAD rank the true parent table (entry) above sibling
	// link tables when choosing top-Y partners.
	var i2gRows [][]string
	for i, ac := range entryAcc {
		if i%3 == 2 {
			continue
		}
		i2gRows = append(i2gRows, []string{ac, goAcc[i%nGoTerms]})
		if i%3 == 0 {
			i2gRows = append(i2gRows, []string{ac, goAcc[(i*7+13)%nGoTerms]})
		}
	}

	pubIDs := make([]string, nPubs)
	journalIDs := make([]string, nJournals)
	var journalRows [][]string
	for j := range journalIDs {
		journalIDs[j] = fmt.Sprintf("JRN%03d", j+1)
		journalRows = append(journalRows, []string{
			journalIDs[j], journalNames[j%len(journalNames)],
			fmt.Sprintf("%04d-%04d", 1000+j, 2000+j),
			pick(r, "Elsevier", "Springer", "OUP", "CSHL"),
		})
	}
	var pubRows [][]string
	for i := range pubIDs {
		pubIDs[i] = fmt.Sprintf("PUB%05d", i+1)
		pubRows = append(pubRows, []string{
			pubIDs[i],
			fmt.Sprintf("Structural analysis of %s", entryNames[i%nEntries]),
			fmt.Sprint(1995 + i%15),
			journalIDs[i%nJournals],
		})
	}

	// methods: grouped under entries; method names partially overlap entry
	// names — the "wrongly induced but useful" MAD edge the paper discusses.
	var methodRows [][]string
	methodAcc := make([]string, nMethods)
	for i := range methodAcc {
		methodAcc[i] = fmt.Sprintf("PF%05d", i+1)
		name := fmt.Sprintf("motif_%d", i)
		if i%5 == 0 {
			name = entryNames[i%nEntries] // shared distinct values
		}
		methodRows = append(methodRows, []string{
			methodAcc[i], name,
			pick(r, "PFAM", "PROSITE", "PRINTS", "SMART"),
			entryAcc[i%nEntries],
		})
	}

	// entry2pub references half of the entries (subset property, as above).
	var e2pRows, m2pRows [][]string
	for i, ac := range entryAcc {
		if i%2 != 0 {
			continue
		}
		e2pRows = append(e2pRows, []string{ac, pubIDs[i%nPubs]})
		e2pRows = append(e2pRows, []string{ac, pubIDs[(i*3+7)%nPubs]})
	}
	for i, ac := range methodAcc {
		if i%2 == 0 {
			m2pRows = append(m2pRows, []string{ac, pubIDs[(i*5+3)%nPubs]})
		}
	}

	attrs := func(names ...string) []relstore.Attribute {
		out := make([]relstore.Attribute, len(names))
		for i, n := range names {
			out[i] = relstore.Attribute{Name: n}
		}
		return out
	}
	mk := func(source, name string, attributes []relstore.Attribute, rows [][]string) *relstore.Table {
		t, err := relstore.NewTable(&relstore.Relation{
			Source: source, Name: name, Attributes: attributes,
		}, rows)
		if err != nil {
			panic(fmt.Sprintf("datasets: InterProGO table %s.%s: %v", source, name, err))
		}
		return t
	}

	// 28 attributes across 8 tables; no foreign keys declared (§5.2).
	tables := []*relstore.Table{
		mk("go", "term",
			attrs("acc", "name", "term_type", "is_obsolete", "definition"), goRows),
		mk("interpro", "interpro2go", attrs("entry_ac", "go_id"), i2gRows),
		mk("interpro", "entry",
			attrs("entry_ac", "name", "short_name", "entry_type", "abstract"), entryRows),
		mk("interpro", "entry2pub", attrs("entry_ac", "pub_id"), e2pRows),
		mk("interpro", "pub", attrs("pub_id", "title", "year", "journal_id"), pubRows),
		mk("interpro", "method",
			attrs("method_ac", "name", "method_db", "entry_ac"), methodRows),
		mk("interpro", "method2pub", attrs("method_ac", "pub_id"), m2pRows),
		mk("interpro", "journal",
			attrs("journal_id", "journal_name", "issn", "publisher"), journalRows),
	}

	ref := func(rel, attr string) relstore.AttrRef {
		return relstore.AttrRef{Relation: rel, Attr: attr}
	}
	goldPairs := [][2]relstore.AttrRef{
		{ref("go.term", "acc"), ref("interpro.interpro2go", "go_id")},
		{ref("interpro.interpro2go", "entry_ac"), ref("interpro.entry", "entry_ac")},
		{ref("interpro.entry2pub", "entry_ac"), ref("interpro.entry", "entry_ac")},
		{ref("interpro.entry2pub", "pub_id"), ref("interpro.pub", "pub_id")},
		{ref("interpro.method2pub", "method_ac"), ref("interpro.method", "method_ac")},
		{ref("interpro.method2pub", "pub_id"), ref("interpro.pub", "pub_id")},
		{ref("interpro.method", "entry_ac"), ref("interpro.entry", "entry_ac")},
		{ref("interpro.pub", "journal_id"), ref("interpro.journal", "journal_id")},
	}
	gold := make(map[string]bool, len(goldPairs))
	for _, p := range goldPairs {
		gold[relstore.CanonicalPair(p[0], p[1])] = true
	}

	// Each query pairs a value unique to one relation with a value unique to
	// another, so answering it REQUIRES joining across one of the gold
	// alignment edges (the documented usage patterns of §5.2 are exactly
	// such cross-database lookups). Together the ten queries exercise all 8
	// gold edges:
	//   q0,q9 edge go.term.acc~interpro2go.go_id
	//   q1    edge interpro2go.entry_ac~entry.entry_ac
	//   q2    edge entry2pub.entry_ac~entry.entry_ac
	//   q3    edge entry2pub.pub_id~pub.pub_id
	//   q4    edge method2pub.method_ac~method.method_ac
	//   q5    edge method2pub.pub_id~pub.pub_id
	//   q6    edge method.entry_ac~entry.entry_ac
	//   q7    edge pub.journal_id~journal.journal_id
	//   q8    the interpro2go→entry→entry2pub gold chain, pitted against the
	//         spurious link-table bridge interpro2go.entry_ac~entry2pub.entry_ac
	//   q9    the entry2pub→pub→method2pub gold chain, pitted against the
	//         spurious bridge entry2pub.pub_id~method2pub.pub_id
	queries := []string{
		"'plasma membrane' 'IPR000001'",
		"'GO:0001000' 'fam_0'",
		"'fam_4' 'PUB00005'",
		"'Structural analysis of kringle' 'IPR000005'",
		"'motif_2' 'PUB00014'",
		"'PF00001' 'Structural analysis of helicase'",
		"'motif_1' 'fam_1'",
		"'Nature' 'Structural analysis of kringle'",
		"'GO:0001004' 'PUB00009'",
		"'fam_2' 'PF00003'",
	}

	return &InterProGOCorpus{Tables: tables, Gold: gold, GoldPairs: goldPairs, Queries: queries}
}

func pick(r *rand.Rand, choices ...string) string {
	return choices[r.Intn(len(choices))]
}
