package stream

import (
	"fmt"
	"math"
	"math/rand"
)

func testSchema() Schema {
	return Schema{
		Name:        "line",
		Continuous:  []string{"temp", "pressure"},
		Categorical: []string{"machine", "shift"},
	}
}

func randomRow(rng *rand.Rand) ([]float64, []string, string) {
	cont := []float64{rng.NormFloat64()*5 + 20, rng.NormFloat64() + 1.5}
	if rng.Intn(20) == 0 {
		cont[1] = math.NaN() // missing reading
	}
	cat := []string{
		fmt.Sprintf("m%d", rng.Intn(4)),
		[]string{"day", "night"}[rng.Intn(2)],
	}
	group := []string{"ok", "fail", "degraded"}[rng.Intn(3)]
	return cont, cat, group
}
