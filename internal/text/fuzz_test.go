package text

import (
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// FuzzNormalize pins the invariants every index structure built over
// normalised text depends on (trigram postings, substring and containment
// checks): Normalize is idempotent, its output is valid UTF-8 (the value
// index cuts trigram keys at rune boundaries of it), its output alphabet is
// lowercase letters, digits and single interior spaces, and tokenisation of
// the output is stable. CI runs this as a short -fuzz smoke on every push; the
// checked-in corpus below seeds the interesting shapes.
func FuzzNormalize(f *testing.F) {
	for _, s := range []string{
		"", " ", "entry_ac", "entry-AC", "Entry AC", "GO:0005886",
		"plasma membrane", "café au lait", "Ångström", "βeta-catenin",
		"東京タワー", "İstanbul", "ǅungla", "ﬀ ligature", "á combining",
		"\x00\x01 control", "mixed\tWS\n\r chars", "ΣΊΣΥΦΟΣ", "ß sharp",
		"!!!", "--::--", "42", "3.14159", "� replacement", "𝔘𝔫𝔦𝔠𝔬𝔡𝔢",
		"bad \xffutf8\xc3",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		n := Normalize(s)
		if !utf8.ValidString(n) {
			t.Errorf("Normalize(%q) = %q is not valid UTF-8", s, n)
		}
		if again := Normalize(n); again != n {
			t.Errorf("Normalize not idempotent: %q -> %q -> %q", s, n, again)
		}
		if n != strings.TrimSpace(n) {
			t.Errorf("Normalize(%q) = %q has leading/trailing space", s, n)
		}
		if strings.Contains(n, "  ") {
			t.Errorf("Normalize(%q) = %q has a run of spaces", s, n)
		}
		for _, r := range n {
			if r == ' ' {
				continue
			}
			if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
				t.Errorf("Normalize(%q) = %q contains non-alphanumeric rune %q", s, n, r)
			}
			// Case-folding fixed point. (Not IsUpper: runes like '𝔘',
			// category Lu with no lowercase mapping, legitimately survive.)
			if unicode.ToLower(r) != r {
				t.Errorf("Normalize(%q) = %q contains non-lowered rune %q", s, n, r)
			}
		}
		// Fields of the output round-trip: joining them back IS the output.
		if joined := strings.Join(strings.Fields(n), " "); joined != n {
			t.Errorf("Normalize(%q) = %q is not field-stable (%q)", s, n, joined)
		}
	})
}
