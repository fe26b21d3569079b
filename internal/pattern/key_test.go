package pattern

import (
	"math"
	"testing"
)

// TestParseKeyRoundTrip is the property the trace provenance index relies
// on: ParseKey(s.Key()) reproduces s bit for bit, including non-dyadic
// continuous bounds and open intervals.
func TestParseKeyRoundTrip(t *testing.T) {
	sets := []Itemset{
		NewItemset(),
		NewItemset(CatItem(0, 3)),
		NewItemset(CatItem(2, 0), CatItem(5, 11)),
		NewItemset(RangeItem(1, 0, 10)),
		NewItemset(RangeItem(1, math.Inf(-1), 26.5)),
		NewItemset(RangeItem(3, 0.1, math.Inf(1))),
		NewItemset(RangeItem(0, -1.5, 2.25), CatItem(4, 7)),
		NewItemset(RangeItem(2, 1.0/3.0, math.Pi)), // non-dyadic bounds
	}
	for _, s := range sets {
		key := s.Key()
		back, err := ParseKey(key)
		if err != nil {
			t.Errorf("ParseKey(%q) error: %v", key, err)
			continue
		}
		if back.Key() != key {
			t.Errorf("round trip broke: %q -> %q", key, back.Key())
		}
		a, b := s.Items(), back.Items()
		if len(a) != len(b) {
			t.Errorf("key %q: item count %d -> %d", key, len(a), len(b))
			continue
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("key %q item %d: %+v != %+v", key, i, a[i], b[i])
			}
		}
	}
}

// TestParseKeyExactBounds pins that continuous bounds survive with full
// float64 precision (the 'b' mantissa/exponent encoding is lossless).
func TestParseKeyExactBounds(t *testing.T) {
	lo, hi := 0.1, math.Nextafter(0.1, 1)
	s := NewItemset(RangeItem(0, lo, hi))
	back, err := ParseKey(s.Key())
	if err != nil {
		t.Fatal(err)
	}
	r := back.Items()[0].Range
	if r.Lo != lo || r.Hi != hi {
		t.Errorf("bounds drifted: got (%v, %v], want (%v, %v]", r.Lo, r.Hi, lo, hi)
	}
}

func TestParseKeyErrors(t *testing.T) {
	bad := []string{
		"x=1",       // non-numeric attr
		"0=abc",     // non-numeric code
		"0",         // no separator
		"0@1",       // range missing comma
		"0@a,b",     // unparseable bounds
		"0@1p2p3,4", // malformed exponent
		"0=1|",      // trailing empty part
	}
	for _, k := range bad {
		if _, err := ParseKey(k); err == nil {
			t.Errorf("ParseKey(%q) accepted malformed key", k)
		}
	}
}

func TestParseKeyEmptyIsEmptySet(t *testing.T) {
	s, err := ParseKey("")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Items()) != 0 {
		t.Errorf("empty key parsed to %d items", len(s.Items()))
	}
}

// FuzzParseKey checks that Key is an exact inverse of ParseKey on any key
// ParseKey accepts: the parsed itemset's Key must parse back to items with
// identical attributes, kinds, codes and bound bits. The seed "0@0,-0"
// pins the sign of a -0 bound, which Key writes as "-0p-1074".
func FuzzParseKey(f *testing.F) {
	for _, seed := range []string{
		"", "0@0,-0", "0=3", "2=0|5=11", "1@-inf,26.5", "3@3602879701896397p-55,inf",
		"0@-3p-1,9p-2|4=7", "0@nan,1", "1@1p2p3,4",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, key string) {
		s, err := ParseKey(key)
		if err != nil {
			return
		}
		back, err := ParseKey(s.Key())
		if err != nil {
			t.Fatalf("ParseKey(%q) accepted, but its Key %q does not parse: %v", key, s.Key(), err)
		}
		a, b := s.Items(), back.Items()
		if len(a) != len(b) {
			t.Fatalf("key %q: %d items, its Key %q parses to %d", key, len(a), s.Key(), len(b))
		}
		for i := range a {
			if a[i].Attr != b[i].Attr || a[i].Kind != b[i].Kind || a[i].Code != b[i].Code ||
				math.Float64bits(a[i].Range.Lo) != math.Float64bits(b[i].Range.Lo) ||
				math.Float64bits(a[i].Range.Hi) != math.Float64bits(b[i].Range.Hi) {
				t.Fatalf("key %q item %d: %+v, its Key %q parses to %+v", key, i, a[i], s.Key(), b[i])
			}
		}
	})
}
