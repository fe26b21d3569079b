package oracle

import (
	"context"
	"fmt"
	"math"

	"sdadcs/internal/core"
	"sdadcs/internal/dataset"
	"sdadcs/internal/pattern"
)

// Divergence is one disagreement between the production miner and the
// reference implementation. The harness collects them instead of failing
// fast so one run reports every way a seed went wrong.
type Divergence struct {
	Check  string // "exact", "topk", "soundness", or a metamorphic relation
	Key    string // canonical itemset key when the disagreement is per-pattern
	Detail string
}

func (v Divergence) String() string {
	if v.Key == "" {
		return v.Check + ": " + v.Detail
	}
	return fmt.Sprintf("%s: [%s] %s", v.Check, v.Key, v.Detail)
}

// maxReport caps per-check divergence lists so a systematically broken
// seed produces a readable failure, not thousands of lines.
const maxReport = 12

// ExactConfig is the production configuration under which the miner must
// reproduce the oracle bit for bit: every pruning rule off, no result
// bound (TopKUnbounded keeps the dynamic threshold at −Inf, so the
// optimistic-estimate recursion gate never fires), one worker, no
// meaningfulness filter, and the conservative OE mode (irrelevant with
// the gate disarmed, but it keeps the config honest about admissibility).
func ExactConfig() core.Config {
	noPrune := core.Pruning{}
	return core.Config{
		TopK:                 core.TopKUnbounded,
		Workers:              1,
		OEMode:               core.OEModeConservative,
		Pruning:              &noPrune,
		SkipMeaningfulFilter: true,
	}
}

// RefConfig translates a production configuration into the oracle's. Zero
// fields resolve to the same defaults core.Config applies, so the two
// miners always agree on α, δ and the depth bounds.
func RefConfig(cfg core.Config) Config {
	out := Config{
		Alpha:          cfg.Alpha,
		Delta:          cfg.Delta,
		MaxDepth:       cfg.MaxDepth,
		MaxRecursion:   cfg.MaxRecursion,
		Measure:        cfg.Measure,
		RecordExplored: cfg.RecordExploredSpaces,
	}
	if out.Alpha == 0 {
		out.Alpha = 0.05
	}
	if out.Delta == 0 {
		out.Delta = 0.1
	}
	if out.MaxDepth == 0 {
		out.MaxDepth = 5
	}
	if out.MaxRecursion == 0 {
		out.MaxRecursion = 8
	}
	return out
}

// CheckExact mines the dataset with the production miner under an
// exhaustive configuration (see ExactConfig) and with the oracle, then
// demands bit-for-bit agreement: the same canonical keys in the same
// order, identical per-group counts, and bitwise-equal Score, ChiSq and P.
// Nothing is approximate here — both sides perform the same arithmetic in
// the same order, so any drift is a real behavioural difference.
func CheckExact(d *dataset.Dataset, cfg core.Config) []Divergence {
	prod, err := core.MineContext(context.Background(), d, cfg)
	if err != nil {
		return []Divergence{{Check: "exact", Detail: "production miner error: " + err.Error()}}
	}
	ref := Mine(d, RefConfig(cfg))
	return diffContrastLists("exact", prod.Contrasts, ref.Contrasts)
}

// diffContrastLists compares two sorted contrast lists position by
// position, then reports keys present on only one side.
func diffContrastLists(check string, got, want []pattern.Contrast) []Divergence {
	var div []Divergence
	report := func(key, detail string) {
		if len(div) < maxReport {
			div = append(div, Divergence{Check: check, Key: key, Detail: detail})
		}
	}
	if len(got) != len(want) {
		report("", fmt.Sprintf("pattern count: production %d, oracle %d", len(got), len(want)))
	}
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	for i := 0; i < n; i++ {
		g, w := got[i], want[i]
		if g.Set.Key() != w.Set.Key() {
			report(g.Set.Key(), fmt.Sprintf("rank %d: oracle has %s here", i, w.Set.Key()))
			continue
		}
		div = append(div, compareContrast(check, g, w)...)
		if len(div) >= maxReport {
			break
		}
	}
	// Keys only on one side (beyond any positional mismatch above).
	gotKeys := keySet(got)
	wantKeys := keySet(want)
	for k := range gotKeys {
		if _, ok := wantKeys[k]; !ok {
			report(k, "emitted by production, absent from the oracle universe")
		}
	}
	for k := range wantKeys {
		if _, ok := gotKeys[k]; !ok {
			report(k, "in the oracle universe, missing from production")
		}
	}
	return div
}

func keySet(cs []pattern.Contrast) map[string]int {
	m := make(map[string]int, len(cs))
	for i, c := range cs {
		m[c.Set.Key()] = i
	}
	return m
}

// compareContrast demands bitwise equality of the numeric fields of two
// same-key contrasts.
func compareContrast(check string, got, want pattern.Contrast) []Divergence {
	key := got.Set.Key()
	var div []Divergence
	add := func(detail string) { div = append(div, Divergence{Check: check, Key: key, Detail: detail}) }
	if len(got.Supports.Count) != len(want.Supports.Count) {
		add("group count mismatch")
		return div
	}
	for g := range got.Supports.Count {
		if got.Supports.Count[g] != want.Supports.Count[g] {
			add(fmt.Sprintf("count[g%d]: production %d, oracle %d",
				g, got.Supports.Count[g], want.Supports.Count[g]))
		}
	}
	if math.Float64bits(got.Score) != math.Float64bits(want.Score) {
		add(fmt.Sprintf("score: production %v, oracle %v", got.Score, want.Score))
	}
	if math.Float64bits(got.ChiSq) != math.Float64bits(want.ChiSq) {
		add(fmt.Sprintf("chi-square: production %v, oracle %v", got.ChiSq, want.ChiSq))
	}
	if math.Float64bits(got.P) != math.Float64bits(want.P) {
		add(fmt.Sprintf("p-value: production %v, oracle %v", got.P, want.P))
	}
	return div
}

// CheckTopK mines with a real top-k bound (pruning otherwise off) and
// checks that the production output is a correctly-ranked,
// threshold-consistent selection: at most k patterns, sorted by the
// canonical total order, and every emitted pattern either appears in the
// oracle's pattern universe with identical numbers or — the documented
// tolerance — is a coarse space the dynamic-threshold recursion pruning
// legitimately stopped refining, in which case it must still recount,
// rescore and pass the level's gates from first principles.
func CheckTopK(d *dataset.Dataset, cfg core.Config) []Divergence {
	if cfg.TopK <= 0 {
		return []Divergence{{Check: "topk", Detail: "CheckTopK needs a positive TopK"}}
	}
	prod, err := core.MineContext(context.Background(), d, cfg)
	if err != nil {
		return []Divergence{{Check: "topk", Detail: "production miner error: " + err.Error()}}
	}
	refCfg := RefConfig(cfg)
	ref := Mine(d, refCfg)

	var div []Divergence
	report := func(key, detail string) {
		if len(div) < maxReport {
			div = append(div, Divergence{Check: "topk", Key: key, Detail: detail})
		}
	}
	if len(prod.Contrasts) > cfg.TopK {
		report("", fmt.Sprintf("emitted %d patterns with TopK=%d", len(prod.Contrasts), cfg.TopK))
	}
	for i := 1; i < len(prod.Contrasts); i++ {
		a, b := prod.Contrasts[i-1], prod.Contrasts[i]
		if a.Score < b.Score || (a.Score == b.Score && a.Set.Key() > b.Set.Key()) {
			report(b.Set.Key(), fmt.Sprintf("rank %d out of order (score %v after %v)", i, b.Score, a.Score))
		}
	}

	inRef := keySet(ref.Contrasts)
	m := &refMiner{d: d, cfg: refCfg, sizes: d.GroupSizes(), found: map[string]pattern.Contrast{}}
	for _, c := range prod.Contrasts {
		key := c.Set.Key()
		if idx, ok := inRef[key]; ok {
			div = append(div, compareContrast("topk", c, ref.Contrasts[idx])...)
			if len(div) >= maxReport {
				break
			}
			continue
		}
		// Tolerated out-of-universe pattern: validate it from first
		// principles at the Bonferroni level of its combination depth.
		sup := m.suppOf(m.coverOf(c.Set.Items()))
		for g := range sup.Count {
			if sup.Count[g] != c.Supports.Count[g] {
				report(key, fmt.Sprintf("recount[g%d]: production %d, naive %d",
					g, c.Supports.Count[g], sup.Count[g]))
			}
		}
		if !(maxDiffRef(sup) > refCfg.Delta) {
			report(key, fmt.Sprintf("not large: maxDiff %v <= delta %v", maxDiffRef(sup), refCfg.Delta))
		}
		alpha := ref.Alpha(c.Set.Len())
		if _, p, ok := significant(sup.Count, sup.Size, alpha); !ok {
			report(key, fmt.Sprintf("not significant: p %v at level alpha %v", p, alpha))
		}
		if math.Float64bits(m.scoreOf(sup)) != math.Float64bits(c.Score) {
			report(key, fmt.Sprintf("score: production %v, reference %v", c.Score, m.scoreOf(sup)))
		}
	}
	return div
}

// CheckSoundness mines with the given (typically default) configuration —
// every pruning rule, the meaningfulness filter, the bitmap engine — and
// verifies each emitted pattern from first principles: a naive recount
// over the raw rows must reproduce its per-group counts, it must be large
// (Eq. 2 above δ), significant at the overall α, and carry the score its
// own supports imply. Pruning may drop patterns (that is its job); it must
// never corrupt one that survives.
func CheckSoundness(d *dataset.Dataset, cfg core.Config) []Divergence {
	prod, err := core.MineContext(context.Background(), d, cfg)
	if err != nil {
		return []Divergence{{Check: "soundness", Detail: "production miner error: " + err.Error()}}
	}
	refCfg := RefConfig(cfg)
	m := &refMiner{d: d, cfg: refCfg, sizes: d.GroupSizes(), found: map[string]pattern.Contrast{}}

	var div []Divergence
	report := func(key, detail string) {
		if len(div) < maxReport {
			div = append(div, Divergence{Check: "soundness", Key: key, Detail: detail})
		}
	}
	resolvedTopK := cfg.TopK
	if resolvedTopK == 0 {
		resolvedTopK = 100
	}
	if resolvedTopK > 0 && len(prod.Contrasts) > resolvedTopK {
		report("", fmt.Sprintf("emitted %d patterns with TopK=%d", len(prod.Contrasts), resolvedTopK))
	}
	for i := 1; i < len(prod.Contrasts); i++ {
		if prod.Contrasts[i-1].Score < prod.Contrasts[i].Score {
			report(prod.Contrasts[i].Set.Key(), fmt.Sprintf("rank %d out of score order", i))
		}
	}
	for _, c := range prod.Contrasts {
		key := c.Set.Key()
		sup := m.suppOf(m.coverOf(c.Set.Items()))
		for g := range sup.Count {
			if g < len(c.Supports.Count) && sup.Count[g] != c.Supports.Count[g] {
				report(key, fmt.Sprintf("recount[g%d]: emitted %d, naive %d",
					g, c.Supports.Count[g], sup.Count[g]))
			}
		}
		if !(maxDiffRef(sup) > refCfg.Delta) {
			report(key, fmt.Sprintf("not large: maxDiff %v <= delta %v", maxDiffRef(sup), refCfg.Delta))
		}
		// The per-level Bonferroni α is at most the overall α, so every
		// honestly-admitted pattern is significant at refCfg.Alpha too.
		if _, p, ok := significant(sup.Count, sup.Size, refCfg.Alpha); !ok {
			report(key, fmt.Sprintf("not significant: p %v at alpha %v", p, refCfg.Alpha))
		}
		if math.IsNaN(c.P) || math.IsNaN(c.Score) {
			report(key, "NaN score or p-value escaped the gates")
		}
		if math.Float64bits(m.scoreOf(sup)) != math.Float64bits(c.Score) {
			report(key, fmt.Sprintf("score: emitted %v, supports imply %v", c.Score, m.scoreOf(sup)))
		}
	}
	return div
}
