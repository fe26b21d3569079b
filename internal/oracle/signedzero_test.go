package oracle

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"sdadcs/internal/core"
	"sdadcs/internal/dataset"
)

// signedZeroCSV renders a dataset whose first column is mostly zeros,
// spelled "0" or "-0" at random, so the median of many boxes is a zero
// drawn from a run of equal values of both signs.
func signedZeroCSV(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	sb.WriteString("x,y,group\n")
	for i := 0; i < 240; i++ {
		x := "0"
		switch r := rng.Intn(10); {
		case r < 3:
			x = "-0"
		case r < 6:
		default:
			x = fmt.Sprint(rng.Intn(5) - 2)
		}
		y := rng.Intn(8)
		group := "A"
		if (x == "0" || x == "-0") == (rng.Intn(4) > 0) {
			group = "B"
		}
		fmt.Fprintf(&sb, "%s,%d,%s\n", x, y, group)
	}
	return sb.String()
}

// TestSignedZeroBounds mines ±0-heavy columns read from CSV, where
// strconv.ParseFloat keeps the sign of "-0". Every bound must be spelled
// +0, and the production miner must still match the oracle exactly: the
// two pick a median from a tied run of zeros in different ways
// (selection versus sorting), so they agree only because the dataset
// stores one zero.
func TestSignedZeroBounds(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		d, err := dataset.FromCSV(strings.NewReader(signedZeroCSV(seed)),
			dataset.CSVOptions{GroupColumn: "group"})
		if err != nil {
			t.Fatal(err)
		}
		cfg := ExactConfig()
		res := core.Mine(d, cfg)
		if len(res.Contrasts) == 0 {
			t.Fatalf("seed %d: no contrasts; the fixture is broken", seed)
		}
		for _, c := range res.Contrasts {
			for _, it := range c.Set.Items() {
				if it.Kind != dataset.Continuous {
					continue
				}
				for _, b := range []float64{it.Range.Lo, it.Range.Hi} {
					if b == 0 && math.Signbit(b) {
						t.Errorf("seed %d: %s has a -0 bound", seed, c.Set.Key())
					}
				}
			}
		}
		for _, v := range CheckExact(d, cfg) {
			t.Errorf("seed %d: %s", seed, v)
		}
		if t.Failed() {
			t.Fatalf("stopping at first divergent seed %d", seed)
		}
	}
}
