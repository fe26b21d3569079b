package dataset

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzFromCSV checks that arbitrary CSV input never panics the loader and
// that anything it accepts survives a write/read round trip.
func FuzzFromCSV(f *testing.F) {
	f.Add("x,grp\n1,A\n2,B\n")
	f.Add("a,b,grp\n1,foo,A\n2,bar,B\n3,foo,A\n")
	f.Add("grp\nA\nB\n")
	f.Add("x,grp\n1,A\n")           // single group: must error, not panic
	f.Add("x,grp\nnan,A\ninf,B\n")  // special float spellings
	f.Add("x,grp\n1e308,A\n-1,B\n") // extreme magnitudes
	f.Add(",\n,\n")
	f.Add("x,grp\n\"quoted,comma\",A\nplain,B\n")

	f.Fuzz(func(t *testing.T, input string) {
		d, err := FromCSV(strings.NewReader(input), CSVOptions{GroupColumn: "grp"})
		if err != nil {
			return // rejection is fine; panics are not
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("accepted dataset fails validation: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, d, "grp"); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		d2, err := FromCSV(bytes.NewReader(buf.Bytes()), CSVOptions{GroupColumn: "grp"})
		if err != nil {
			t.Fatalf("round trip rejected: %v\ncsv:\n%s", err, buf.String())
		}
		if d2.Rows() != d.Rows() || d2.NumAttrs() != d.NumAttrs() {
			t.Fatalf("round trip changed shape: %dx%d -> %dx%d",
				d.Rows(), d.NumAttrs(), d2.Rows(), d2.NumAttrs())
		}
	})
}

// FuzzQuantileVsSort checks that the selection-based Quantile returns,
// bit for bit, the element the sort-based definition picks. Each input
// byte becomes one value on a small grid, so ties are the norm; 0xff is
// a NaN and 0xfe a −0.
func FuzzQuantileVsSort(f *testing.F) {
	f.Add([]byte{}, 0.5)
	f.Add([]byte{3}, 0.0)
	f.Add([]byte{1, 2}, 0.5)
	f.Add([]byte{5, 5, 5, 5, 0xff, 5}, 0.5)
	f.Add([]byte{0, 0xfe, 0, 0xfe, 1}, 0.5)
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1}, 0.3)
	f.Add([]byte{0xff, 0xff, 0xff}, 1.0)

	f.Fuzz(func(t *testing.T, data []byte, q float64) {
		if q != q {
			return // int(NaN) is undefined; q is a caller-supplied constant
		}
		vals := make([]float64, len(data))
		for i, b := range data {
			switch b {
			case 0xff:
				vals[i] = math.NaN()
			case 0xfe:
				vals[i] = math.Copysign(0, -1)
			default:
				vals[i] = float64(int(b%16) - 4)
			}
		}
		checkQuantileVsSort(t, vals, []float64{q, 0, 0.5, 1})
	})
}
