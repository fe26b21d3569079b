package oracle

// This file extends the differential oracle beyond the core SDAD-CS miner
// to every baseline algorithm the engine registry exposes: STUCCO, the
// Cortana-style subgroup discovery beam search, Fayyad–Irani entropy (MDLP)
// discretization and Bay's MVD. Each reference is a deliberate
// transliteration of the production algorithm — same IEEE operation order,
// no pruning shortcuts replaced by cleverness — implemented against naive
// row scans, so agreement is checked bit-for-bit (the PR-5 discipline).
// Shared numeric primitives (the chi-square survival function and quantile)
// are reused; everything combinatorial is reimplemented.
//
// The metamorphic relations differ per baseline and are documented on each
// check:
//
//   - STUCCO / subgroup: bit-equality under worker count,
//     instrumentation and row permutation; bit-equality under group
//     relabeling (the dataset builder assigns group codes by first
//     appearance, so a transposition of NAMES changes no index); weak
//     agreement under column reordering (shared named conditions must carry
//     identical counts — presence itself is order-dependent: candidate
//     reachability and the Bonferroni denominator both move); common-key
//     scaling under row duplication (counts ×m, bit-equal ratio-based
//     scores — survival is NOT guaranteed: ×m expected cell counts unprune
//     nodes, growing |C_l| and shrinking the level α).
//   - Entropy cuts: bit-equality under permutation and relabeling
//     (entropies depend only on class counts at distinct-value boundaries);
//     a SUPERSET relation under duplication (gains are scale-invariant
//     while the MDL threshold (log2(n−1)+δ)/n shrinks at the row counts the
//     generator produces, so accepted cuts stay accepted).
//   - MVD cuts: bit-equality under permutation (boundaries snap past ties,
//     so bin membership is a function of values) and relabeling. Row
//     duplication has NO invariant worth checking: the initial
//     equi-frequency binning is tied to the absolute row count (BinSize
//     rows per bin), so ×m rows produce a different starting partition, and
//     every merge χ² sharpens by ×m on top of that.

import (
	"fmt"
	"math"
	"sort"

	"sdadcs/internal/dataset"
	"sdadcs/internal/entropy"
	"sdadcs/internal/metrics"
	"sdadcs/internal/mvd"
	"sdadcs/internal/pattern"
	"sdadcs/internal/stats"
	"sdadcs/internal/stucco"
	"sdadcs/internal/subgroup"
	"sdadcs/internal/trace"
)

// ---------------------------------------------------------------------------
// Shared statistical transliterations.

// chiSquareTableRef transliterates stats.ChiSquareTable: the r×c
// independence test with the same margin checks and the same row-major
// accumulation order, so a well-formed table yields a bit-identical
// statistic. ok is false exactly when the production function errors.
func chiSquareTableRef(observed [][]float64) (stat, p float64, df int, ok bool) {
	r := len(observed)
	if r < 2 {
		return 0, 0, 0, false
	}
	c := len(observed[0])
	if c < 2 {
		return 0, 0, 0, false
	}
	rowSum := make([]float64, r)
	colSum := make([]float64, c)
	total := 0.0
	for i, row := range observed {
		if len(row) != c {
			return 0, 0, 0, false
		}
		for j, v := range row {
			if v < 0 || math.IsNaN(v) {
				return 0, 0, 0, false
			}
			rowSum[i] += v
			colSum[j] += v
			total += v
		}
	}
	if total == 0 {
		return 0, 0, 0, false
	}
	for _, s := range rowSum {
		if s == 0 {
			return 0, 0, 0, false
		}
	}
	for _, s := range colSum {
		if s == 0 {
			return 0, 0, 0, false
		}
	}
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			exp := rowSum[i] * colSum[j] / total
			d := observed[i][j] - exp
			stat += d * d / exp
		}
	}
	df = (r - 1) * (c - 1)
	return stat, stats.ChiSquareSurvival(stat, df), df, true
}

// chiSquare2xKRef transliterates the group×presence 2×k test the STUCCO
// gate applies, including the smallest expected cell count the validity
// check compares against 5.
func chiSquare2xKRef(count, size []int) (stat, p, minExp float64, ok bool) {
	if len(count) != len(size) || len(count) < 2 {
		return 0, 0, 0, false
	}
	k := len(count)
	rowSum := make([]float64, k)
	colSum := make([]float64, 2)
	total := 0.0
	for i := range count {
		if count[i] < 0 || count[i] > size[i] {
			return 0, 0, 0, false
		}
		row := [2]float64{float64(count[i]), float64(size[i] - count[i])}
		for j, v := range row {
			rowSum[i] += v
			colSum[j] += v
			total += v
		}
	}
	if total == 0 {
		return 0, 0, 0, false
	}
	for _, s := range rowSum {
		if s == 0 {
			return 0, 0, 0, false
		}
	}
	for _, s := range colSum {
		if s == 0 {
			return 0, 0, 0, false
		}
	}
	minExp = math.Inf(1)
	for i := 0; i < k; i++ {
		for _, cell := range [2]struct{ obs, colSum float64 }{
			{float64(count[i]), colSum[0]},
			{float64(size[i] - count[i]), colSum[1]},
		} {
			exp := rowSum[i] * cell.colSum / total
			if exp < minExp {
				minExp = exp
			}
			d := cell.obs - exp
			stat += d * d / exp
		}
	}
	df := k - 1
	return stat, stats.ChiSquareSurvival(stat, df), minExp, true
}

// chiSquareOptimisticRef transliterates the Bay & Pazzani optimistic bound:
// the best statistic over the k extremes that keep one group's count and
// zero the rest.
func chiSquareOptimisticRef(count, size []int) float64 {
	best := 0.0
	k := len(count)
	sub := make([]int, k)
	for keep := 0; keep < k; keep++ {
		for i := range sub {
			if i == keep {
				sub[i] = count[i]
			} else {
				sub[i] = 0
			}
		}
		if sub[keep] == 0 {
			continue
		}
		stat, _, _, ok := chiSquare2xKRef(sub, size)
		if !ok {
			continue
		}
		if stat > best {
			best = stat
		}
	}
	return best
}

// wraccRef transliterates Supports.WRAcc: cover(c)/N × (P(g|c) − P(g)).
func wraccRef(sup pattern.Supports, g int) float64 {
	total := 0
	covered := 0
	for i := range sup.Count {
		total += sup.Size[i]
		covered += sup.Count[i]
	}
	if total == 0 || covered == 0 {
		return 0
	}
	coverRate := float64(covered) / float64(total)
	conf := float64(sup.Count[g]) / float64(covered)
	prior := float64(sup.Size[g]) / float64(total)
	return coverRate * (conf - prior)
}

// measureRef evaluates every registered interest measure from first
// principles, matching pattern.Measure.Eval bit-for-bit.
func measureRef(m pattern.Measure, sup pattern.Supports) float64 {
	switch m {
	case pattern.SupportDiff:
		return maxDiffRef(sup)
	case pattern.PurityRatio:
		return prRef(sup)
	case pattern.SurprisingMeasure:
		return prRef(sup) * maxDiffRef(sup)
	case pattern.WRAccMeasure:
		best := 0.0
		for g := 0; g < sup.Groups(); g++ {
			if w := wraccRef(sup, g); w > best {
				best = w
			}
		}
		return best
	case pattern.GrowthRateMeasure:
		return growthRateRef(sup)
	case pattern.ContrastRuleMeasure:
		return confSpreadRef(sup)
	default:
		return m.Eval(sup)
	}
}

// largeInRef transliterates the minimum deviation size condition.
func largeInRef(sup pattern.Supports, delta float64) bool {
	for g := range sup.Count {
		if sup.Supp(g) > delta {
			return true
		}
	}
	return false
}

// minExpectedRef transliterates the STUCCO expected-count prune input.
func minExpectedRef(sup pattern.Supports, sizes []int, totalRows int) float64 {
	covered := 0
	for _, c := range sup.Count {
		covered += c
	}
	min := 0.0
	for g, gs := range sizes {
		exp := float64(covered) * float64(gs) / float64(totalRows)
		if g == 0 || exp < min {
			min = exp
		}
	}
	return min
}

// ---------------------------------------------------------------------------
// STUCCO reference.

// STUCCOResult is the reference miner's output: the full admissible universe
// (no top-k bound) plus the search counters the production miner reports.
type STUCCOResult struct {
	Contrasts   []pattern.Contrast
	LevelAlphas []float64
	Candidates  int
	Pruned      int
}

// stuccoRefDefaults mirrors the production defaults for the fields the
// reference reads (the counting/observability knobs are result-neutral and
// ignored).
func stuccoRefDefaults(cfg stucco.Config) stucco.Config {
	if cfg.Alpha == 0 {
		cfg.Alpha = 0.05
	}
	if cfg.Delta == 0 {
		cfg.Delta = 0.1
	}
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = 5
	}
	return cfg
}

type stuccoRefNode struct {
	set      pattern.Itemset
	rows     []int
	sup      pattern.Supports
	lastAttr int
}

// RefSTUCCO is the obviously-correct STUCCO: the same levelwise loop as
// production, transliterated onto naive row scans, with the Bonferroni
// schedule, the emission gate and all three pruning rules inlined. It
// returns every admissible contrast sorted; because STUCCO's pruning takes
// no feedback from the result list, the production run with the top-k bound
// disabled must equal it bit-for-bit, and a bounded run must equal its
// k-prefix.
func RefSTUCCO(d *dataset.Dataset, cfg stucco.Config) STUCCOResult {
	cfg = stuccoRefDefaults(cfg)
	attrs := cfg.Attrs
	if attrs == nil {
		attrs = d.CategoricalAttrs()
	}
	sizes := d.GroupSizes()
	totalRows := d.Rows()
	var res STUCCOResult

	expand := func(parents []stuccoRefNode) []stuccoRefNode {
		var out []stuccoRefNode
		for _, nd := range parents {
			for _, attr := range attrs {
				if attr <= nd.lastAttr {
					continue
				}
				for code := range d.Domain(attr) {
					var rows []int
					counts := make([]int, len(sizes))
					for _, r := range nd.rows {
						if d.CatCode(attr, r) == code {
							rows = append(rows, r)
							counts[d.Group(r)]++
						}
					}
					if len(rows) == 0 {
						continue
					}
					out = append(out, stuccoRefNode{
						set:      nd.set.With(pattern.CatItem(attr, code)),
						rows:     rows,
						sup:      pattern.CountsToSupports(counts, sizes),
						lastAttr: attr,
					})
				}
			}
		}
		return out
	}

	root := stuccoRefNode{set: pattern.NewItemset(), rows: allRows(d), lastAttr: -1}
	frontier := expand([]stuccoRefNode{root})
	prev := cfg.Alpha // transliterated Bonferroni schedule state
	for level := 1; level <= cfg.MaxDepth && len(frontier) > 0; level++ {
		alpha := cfg.Alpha / float64(len(frontier))
		if alpha > prev {
			alpha = prev
		}
		prev = alpha
		res.LevelAlphas = append(res.LevelAlphas, alpha)

		var survivors []stuccoRefNode
		for _, nd := range frontier {
			res.Candidates++
			sup := nd.sup
			stat, p, minExp, ok := chiSquare2xKRef(sup.Count, sizes)
			if maxDiffRef(sup) > cfg.Delta && ok && p < alpha && minExp >= 5 {
				res.Contrasts = append(res.Contrasts, pattern.Contrast{
					Set:      nd.set,
					Supports: sup,
					Score:    measureRef(cfg.Measure, sup),
					ChiSq:    stat,
					P:        p,
				})
			}
			if !largeInRef(sup, cfg.Delta) {
				res.Pruned++
				continue
			}
			if minExpectedRef(sup, sizes, totalRows) < 5 {
				res.Pruned++
				continue
			}
			if chiSquareOptimisticRef(sup.Count, sizes) < stats.ChiSquareQuantile(1-alpha, len(sizes)-1) {
				res.Pruned++
				continue
			}
			survivors = append(survivors, nd)
		}
		if level == cfg.MaxDepth {
			break
		}
		frontier = expand(survivors)
	}
	pattern.SortContrasts(res.Contrasts)
	return res
}

// CheckSTUCCO holds production STUCCO to the reference: bit-equality of the
// full universe, counter equality, and k-prefix equality for the bounded
// default configuration.
func CheckSTUCCO(d *dataset.Dataset, cfg stucco.Config) []Divergence {
	ref := RefSTUCCO(d, cfg)
	var div []Divergence

	exact := cfg
	exact.TopK = stucco.TopKUnbounded
	exact.Workers = 1
	got := stucco.Mine(d, exact)
	div = append(div, diffContrastLists("stucco-exact-bitmap", got.Contrasts, ref.Contrasts)...)
	if got.Candidates != ref.Candidates {
		div = append(div, Divergence{Check: "stucco-exact-bitmap",
			Detail: fmt.Sprintf("candidates: production %d, reference %d", got.Candidates, ref.Candidates)})
	}
	if got.Pruned != ref.Pruned {
		div = append(div, Divergence{Check: "stucco-exact-bitmap",
			Detail: fmt.Sprintf("pruned: production %d, reference %d", got.Pruned, ref.Pruned)})
	}

	bounded := cfg
	bounded.Workers = 1
	gotK := stucco.Mine(d, bounded)
	k := bounded.TopK
	if k == 0 {
		k = 100
	}
	want := ref.Contrasts
	if k > 0 && len(want) > k {
		want = want[:k]
	}
	div = append(div, diffContrastLists("stucco-topk", gotK.Contrasts, want)...)
	return div
}

// CheckSTUCCOBitEquality runs production STUCCO under every configuration
// pair that must not change a single bit: eight workers vs one,
// instrumentation attached vs nil, a row permutation, and a group-name
// transposition (group CODES are first-appearance encoded, so a
// rename is invisible to the search).
func CheckSTUCCOBitEquality(d *dataset.Dataset, cfg stucco.Config, seed int64) []Divergence {
	base := stucco.Mine(d, cfg)
	var div []Divergence
	variant := func(check string, vd *dataset.Dataset, mut func(*stucco.Config)) {
		vcfg := cfg
		if mut != nil {
			mut(&vcfg)
		}
		got := stucco.Mine(vd, vcfg)
		div = append(div, diffContrastLists(check, got.Contrasts, base.Contrasts)...)
	}
	variant("stucco-workers-8-vs-1", d, func(c *stucco.Config) { c.Workers = 8 })
	variant("stucco-instrumentation-on-vs-off", d, func(c *stucco.Config) {
		c.Metrics = metrics.New()
		c.Trace = trace.New(1 << 16)
	})
	variant("stucco-row-permutation", PermuteRows(d, seed), nil)
	relabeled, _ := RelabelGroups(d)
	variant("stucco-group-relabel", relabeled, nil)
	return div
}

// CheckSTUCCOReorder verifies the order-independent core of STUCCO under a
// column reversal: any two patterns from the two runs imposing the same
// named conditions must carry identical per-group counts. Presence itself
// is order-dependent (pruning decides which SUPERSETS are reachable, and
// supersets are enumerated under their lowest-index parent), so one-sided
// patterns are tolerated.
func CheckSTUCCOReorder(d *dataset.Dataset, cfg stucco.Config) []Divergence {
	base := stucco.Mine(d, cfg)
	order := make([]int, d.NumAttrs())
	for i := range order {
		order[i] = d.NumAttrs() - 1 - i
	}
	rd := ReorderColumns(d, order)
	got := stucco.Mine(rd, cfg)
	return sharedSignatureAgree("stucco-column-reorder", d, base.Contrasts, rd, got.Contrasts)
}

// CheckSTUCCODuplication verifies the common-key scaling relation for
// STUCCO under row duplication: counts ×m with bit-equal scores (every
// registered measure is a function of count/size ratios, and IEEE division
// of exactly-scaled integers rounds identically). Pattern survival is NOT
// required: duplication scales expected cell counts ×m, which unprunes
// nodes, grows |C_l| and shrinks the level α.
func CheckSTUCCODuplication(d *dataset.Dataset, cfg stucco.Config, m int) []Divergence {
	base := stucco.Mine(d, cfg)
	got := stucco.Mine(DuplicateRows(d, m), cfg)
	return commonKeyScaled("stucco-row-duplication", base.Contrasts, got.Contrasts, m)
}

// commonKeyScaled checks the ×m relation over keys present in both runs.
func commonKeyScaled(check string, base, got []pattern.Contrast, m int) []Divergence {
	var div []Divergence
	report := func(key, detail string) {
		if len(div) < maxReport {
			div = append(div, Divergence{Check: check, Key: key, Detail: detail})
		}
	}
	dupByKey := keySet(got)
	for _, b := range base {
		key := b.Set.Key()
		idx, ok := dupByKey[key]
		if !ok {
			continue
		}
		g := got[idx]
		for i := range b.Supports.Count {
			if g.Supports.Count[i] != m*b.Supports.Count[i] {
				report(key, fmt.Sprintf("count[g%d]: base %d, x%d run %d",
					i, b.Supports.Count[i], m, g.Supports.Count[i]))
			}
		}
		if math.Float64bits(g.Score) != math.Float64bits(b.Score) {
			report(key, fmt.Sprintf("score changed under duplication: %v -> %v", b.Score, g.Score))
		}
	}
	return div
}

// sharedSignatureAgree reports patterns from the two runs that impose the
// same named conditions but disagree on counts.
func sharedSignatureAgree(check string, dA *dataset.Dataset, a []pattern.Contrast,
	dB *dataset.Dataset, b []pattern.Contrast) []Divergence {
	var div []Divergence
	sigA := map[string]string{}
	for _, c := range a {
		items, counts := namedSignature(dA, c)
		sigA[items] = counts
	}
	for _, c := range b {
		items, counts := namedSignature(dB, c)
		if want, ok := sigA[items]; ok && want != counts {
			if len(div) < maxReport {
				div = append(div, Divergence{Check: check,
					Detail: fmt.Sprintf("condition %s counts: baseline %s, transformed %s", items, want, counts)})
			}
		}
	}
	return div
}

// ---------------------------------------------------------------------------
// Subgroup discovery reference.

// SubgroupResult is the reference beam search's output.
type SubgroupResult struct {
	Contrasts []pattern.Contrast
	Evaluated int
}

func subgroupRefDefaults(cfg subgroup.Config) subgroup.Config {
	if cfg.BeamWidth == 0 {
		cfg.BeamWidth = 100
	}
	if cfg.Depth == 0 {
		cfg.Depth = 2
	}
	if cfg.Bins == 0 {
		cfg.Bins = 8
	}
	if cfg.TopK == 0 {
		cfg.TopK = 100
	}
	if cfg.TopK == subgroup.TopKUnbounded {
		cfg.TopK = 0
	}
	if cfg.MinCoverage == 0 {
		cfg.MinCoverage = 2
	}
	if cfg.MinQuality == 0 {
		cfg.MinQuality = 0.01
	}
	return cfg
}

// quantileRef transliterates dataset.View.Quantile over the full dataset:
// finite values sorted, lower element at index int(q·(n−1)).
func quantileRef(d *dataset.Dataset, attr int, q float64) float64 {
	var vals []float64
	for _, x := range d.ContColumn(attr) {
		if x == x { // skip NaN
			vals = append(vals, x)
		}
	}
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	if q <= 0 {
		return vals[0]
	}
	if q >= 1 {
		return vals[len(vals)-1]
	}
	return vals[int(q*float64(len(vals)-1))]
}

// conditionsRef transliterates the production condition enumeration:
// attribute=value items, then every interval over the ±Inf-extended
// equal-frequency boundary ladder except the full range.
func conditionsRef(d *dataset.Dataset, bins int) []pattern.Item {
	var out []pattern.Item
	for _, attr := range d.CategoricalAttrs() {
		for code := range d.Domain(attr) {
			out = append(out, pattern.CatItem(attr, code))
		}
	}
	for _, attr := range d.ContinuousAttrs() {
		var bounds []float64
		prev := math.Inf(-1)
		for b := 1; b < bins; b++ {
			q := quantileRef(d, attr, float64(b)/float64(bins))
			if q > prev {
				bounds = append(bounds, q)
				prev = q
			}
		}
		ext := make([]float64, 0, len(bounds)+2)
		ext = append(ext, math.Inf(-1))
		ext = append(ext, bounds...)
		ext = append(ext, math.Inf(1))
		for i := 0; i < len(ext)-1; i++ {
			for j := i + 1; j < len(ext); j++ {
				if i == 0 && j == len(ext)-1 {
					continue
				}
				out = append(out, pattern.RangeItem(attr, ext[i], ext[j]))
			}
		}
	}
	return out
}

// RefSubgroup is the obviously-correct beam search: one run per target
// group over naively-counted covers, pooling per-key best-quality
// subgroups, then the bounded selection and the rescoring sort the
// production top-k list performs. The pooled list's content under a bound k
// equals the top k of the per-key-best universe under (quality desc, key
// asc) — the total order the production heap maintains — because the
// threshold is monotone while only Add is called.
func RefSubgroup(d *dataset.Dataset, cfg subgroup.Config) SubgroupResult {
	cfg = subgroupRefDefaults(cfg)
	conds := conditionsRef(d, cfg.Bins)
	sizes := d.GroupSizes()
	pool := map[string]pattern.Contrast{}
	evaluated := 0

	type beamEntry struct {
		set     pattern.Itemset
		rows    []int
		quality float64
	}
	for g := 0; g < d.NumGroups(); g++ {
		beam := []beamEntry{{set: pattern.NewItemset(), rows: allRows(d)}}
		for level := 1; level <= cfg.Depth; level++ {
			type candidate struct {
				set  pattern.Itemset
				key  string
				rows []int
				sup  pattern.Supports
			}
			var cands []candidate
			seen := map[string]bool{}
			for _, be := range beam {
				for _, cond := range conds {
					if _, used := be.set.ItemOn(cond.Attr); used {
						continue
					}
					set := be.set.With(cond)
					key := set.Key()
					if seen[key] {
						continue
					}
					seen[key] = true
					var rows []int
					counts := make([]int, len(sizes))
					for _, r := range be.rows {
						if cond.Matches(d, r) {
							rows = append(rows, r)
							counts[d.Group(r)]++
						}
					}
					cands = append(cands, candidate{set: set, key: key, rows: rows,
						sup: pattern.CountsToSupports(counts, sizes)})
				}
			}
			var next []beamEntry
			for _, c := range cands {
				evaluated++
				if len(c.rows) < cfg.MinCoverage {
					continue
				}
				q := wraccRef(c.sup, g)
				if q >= cfg.MinQuality {
					contrast := pattern.Contrast{Set: c.set, Supports: c.sup, Score: q}
					if stat, p, _, ok := chiSquare2xKRef(c.sup.Count, sizes); ok {
						contrast.ChiSq = stat
						contrast.P = p
					}
					if old, dup := pool[c.key]; !dup || contrast.Score > old.Score {
						pool[c.key] = contrast
					}
				}
				next = append(next, beamEntry{set: c.set, rows: c.rows, quality: q})
			}
			sort.Slice(next, func(i, j int) bool {
				if next[i].quality != next[j].quality {
					return next[i].quality > next[j].quality
				}
				return next[i].set.Key() < next[j].set.Key()
			})
			if len(next) > cfg.BeamWidth {
				next = next[:cfg.BeamWidth]
			}
			beam = next
		}
	}

	all := make([]pattern.Contrast, 0, len(pool))
	for _, c := range pool {
		all = append(all, c)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].Set.Key() < all[j].Set.Key()
	})
	if cfg.TopK > 0 && len(all) > cfg.TopK {
		all = all[:cfg.TopK]
	}
	for i := range all {
		all[i].Score = measureRef(cfg.Measure, all[i].Supports)
	}
	pattern.SortContrasts(all)
	return SubgroupResult{Contrasts: all, Evaluated: evaluated}
}

// CheckSubgroup holds the production beam search to the reference:
// bit-equality of the unbounded pool (plus the evaluation counter) and of
// the bounded default selection.
func CheckSubgroup(d *dataset.Dataset, cfg subgroup.Config) []Divergence {
	var div []Divergence

	exact := cfg
	exact.TopK = subgroup.TopKUnbounded
	exact.Workers = 1
	refU := RefSubgroup(d, exact)
	got := subgroup.Mine(d, exact)
	div = append(div, diffContrastLists("subgroup-exact-bitmap", got.Contrasts, refU.Contrasts)...)
	if got.Evaluated != refU.Evaluated {
		div = append(div, Divergence{Check: "subgroup-exact-bitmap",
			Detail: fmt.Sprintf("evaluated: production %d, reference %d", got.Evaluated, refU.Evaluated)})
	}

	bounded := cfg
	bounded.Workers = 1
	refK := RefSubgroup(d, bounded)
	gotK := subgroup.Mine(d, bounded)
	div = append(div, diffContrastLists("subgroup-topk", gotK.Contrasts, refK.Contrasts)...)
	return div
}

// CheckSubgroupBitEquality mirrors the STUCCO battery for the beam search:
// worker count, instrumentation, row permutation (quantile
// boundaries come from sorted values) and group relabeling must all be
// bit-neutral.
func CheckSubgroupBitEquality(d *dataset.Dataset, cfg subgroup.Config, seed int64) []Divergence {
	base := subgroup.Mine(d, cfg)
	var div []Divergence
	variant := func(check string, vd *dataset.Dataset, mut func(*subgroup.Config)) {
		vcfg := cfg
		if mut != nil {
			mut(&vcfg)
		}
		got := subgroup.Mine(vd, vcfg)
		div = append(div, diffContrastLists(check, got.Contrasts, base.Contrasts)...)
	}
	variant("subgroup-workers-8-vs-1", d, func(c *subgroup.Config) { c.Workers = 8 })
	variant("subgroup-instrumentation-on-vs-off", d, func(c *subgroup.Config) {
		c.Metrics = metrics.New()
		c.Trace = trace.New(1 << 16)
	})
	variant("subgroup-row-permutation", PermuteRows(d, seed), nil)
	relabeled, _ := RelabelGroups(d)
	variant("subgroup-group-relabel", relabeled, nil)
	return div
}

// CheckSubgroupReorder verifies the weak reordering invariant for the beam
// search: shared named conditions must agree on counts. Presence is
// order-dependent — canonical keys enter the beam tie-break, so a column
// reversal can rotate equal-quality subgroups in and out of the beam.
func CheckSubgroupReorder(d *dataset.Dataset, cfg subgroup.Config) []Divergence {
	base := subgroup.Mine(d, cfg)
	order := make([]int, d.NumAttrs())
	for i := range order {
		order[i] = d.NumAttrs() - 1 - i
	}
	rd := ReorderColumns(d, order)
	got := subgroup.Mine(rd, cfg)
	return sharedSignatureAgree("subgroup-column-reorder", d, base.Contrasts, rd, got.Contrasts)
}

// CheckSubgroupDuplication verifies the common-key ×m scaling relation.
// Keys themselves shift under duplication — the equal-frequency boundary
// index int(q·(n−1)) moves with n — so only intersecting keys are held to
// the relation.
func CheckSubgroupDuplication(d *dataset.Dataset, cfg subgroup.Config, m int) []Divergence {
	base := subgroup.Mine(d, cfg)
	got := subgroup.Mine(DuplicateRows(d, m), cfg)
	return commonKeyScaled("subgroup-row-duplication", base.Contrasts, got.Contrasts, m)
}

// ---------------------------------------------------------------------------
// Entropy (MDLP) reference.

// RefEntropyCuts transliterates the Fayyad–Irani discretizer: per
// continuous attribute, recursive best-gain splitting at distinct-value
// boundaries under the MDL acceptance criterion, with the group attribute
// as the class.
func RefEntropyCuts(d *dataset.Dataset) map[int][]float64 {
	classes := make([]int, d.Rows())
	for r := range classes {
		classes[r] = d.Group(r)
	}
	cuts := make(map[int][]float64)
	for _, attr := range d.ContinuousAttrs() {
		cuts[attr] = discretizeRef(d.ContColumn(attr), classes, d.NumGroups())
	}
	return cuts
}

func discretizeRef(values []float64, classes []int, numClasses int) []float64 {
	if len(values) != len(classes) || len(values) < 2 {
		return nil
	}
	idx := make([]int, 0, len(values))
	for i := range values {
		if values[i] == values[i] {
			idx = append(idx, i)
		}
	}
	if len(idx) < 2 {
		return nil
	}
	sort.Slice(idx, func(a, b int) bool { return values[idx[a]] < values[idx[b]] })
	sv := make([]float64, len(idx))
	sc := make([]int, len(idx))
	for i, j := range idx {
		sv[i] = values[j]
		sc[i] = classes[j]
	}
	var cuts []float64
	mdlpSplitRef(sv, sc, numClasses, &cuts)
	sort.Float64s(cuts)
	return cuts
}

func mdlpSplitRef(sv []float64, sc []int, numClasses int, cuts *[]float64) {
	n := len(sv)
	if n < 2 {
		return
	}
	total := make([]int, numClasses)
	for _, c := range sc {
		total[c]++
	}
	entS := entropyOfRef(total, n)
	if entS == 0 {
		return
	}

	prefix := make([]int, numClasses)
	bestGain := -1.0
	bestIdx := -1
	var bestLeftEnt, bestRightEnt float64
	var bestLeftK, bestRightK int
	for i := 0; i < n-1; i++ {
		prefix[sc[i]]++
		if sv[i] == sv[i+1] {
			continue
		}
		nl := i + 1
		nr := n - nl
		entL := entropyOfRef(prefix, nl)
		right := make([]int, numClasses)
		for c := range right {
			right[c] = total[c] - prefix[c]
		}
		entR := entropyOfRef(right, nr)
		e := float64(nl)/float64(n)*entL + float64(nr)/float64(n)*entR
		gain := entS - e
		if gain > bestGain {
			bestGain = gain
			bestIdx = i
			bestLeftEnt, bestRightEnt = entL, entR
			bestLeftK, bestRightK = distinctRef(prefix), distinctRef(right)
		}
	}
	if bestIdx == -1 {
		return
	}

	k := distinctRef(total)
	delta := math.Log2(math.Pow(3, float64(k))-2) -
		(float64(k)*entS - float64(bestLeftK)*bestLeftEnt - float64(bestRightK)*bestRightEnt)
	threshold := (math.Log2(float64(n)-1) + delta) / float64(n)
	if bestGain <= threshold {
		return
	}

	cut := (sv[bestIdx] + sv[bestIdx+1]) / 2
	*cuts = append(*cuts, cut)
	mdlpSplitRef(sv[:bestIdx+1], sc[:bestIdx+1], numClasses, cuts)
	mdlpSplitRef(sv[bestIdx+1:], sc[bestIdx+1:], numClasses, cuts)
}

func distinctRef(counts []int) int {
	k := 0
	for _, c := range counts {
		if c > 0 {
			k++
		}
	}
	return k
}

func entropyOfRef(counts []int, n int) float64 {
	if n == 0 {
		return 0
	}
	e := 0.0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(n)
		e -= p * math.Log2(p)
	}
	return e
}

// diffCuts compares per-attribute cut lists bit-for-bit.
func diffCuts(check string, d *dataset.Dataset, got, want map[int][]float64) []Divergence {
	var div []Divergence
	report := func(detail string) {
		if len(div) < maxReport {
			div = append(div, Divergence{Check: check, Detail: detail})
		}
	}
	for _, attr := range d.ContinuousAttrs() {
		g, w := got[attr], want[attr]
		if len(g) != len(w) {
			report(fmt.Sprintf("%s: %d cuts %v, reference %d cuts %v",
				d.Attr(attr).Name, len(g), g, len(w), w))
			continue
		}
		for i := range g {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				report(fmt.Sprintf("%s cut %d: %v, reference %v", d.Attr(attr).Name, i, g[i], w[i]))
			}
		}
	}
	return div
}

// CheckEntropy holds the production MDLP discretizer to the reference cuts
// and then drives the full engine pipeline — STUCCO over the binned
// dataset — through the STUCCO battery, which is exactly what the engine's
// "entropy" algorithm executes.
func CheckEntropy(d *dataset.Dataset) []Divergence {
	got := entropy.DiscretizeDataset(d)
	div := diffCuts("entropy-cuts", d, got, RefEntropyCuts(d))
	if len(div) > 0 {
		return div
	}
	binned := dataset.Discretized(d, got)
	return append(div, CheckSTUCCO(binned, stucco.Config{})...)
}

// CheckEntropyInvariances verifies the discretizer's metamorphic relations:
// cut bit-equality under row permutation and group relabeling (entropies
// are functions of class counts at distinct-value boundaries), and the
// superset relation under ×m duplication (gains are scale-invariant while
// the MDL threshold shrinks at these row counts, so accepted splits stay
// accepted and recursion revisits the same subranges).
func CheckEntropyInvariances(d *dataset.Dataset, seed int64, m int) []Divergence {
	base := entropy.DiscretizeDataset(d)
	var div []Divergence
	div = append(div, diffCuts("entropy-row-permutation", d,
		entropy.DiscretizeDataset(PermuteRows(d, seed)), base)...)
	relabeled, _ := RelabelGroups(d)
	div = append(div, diffCuts("entropy-group-relabel", d,
		entropy.DiscretizeDataset(relabeled), base)...)

	dup := entropy.DiscretizeDataset(DuplicateRows(d, m))
	for _, attr := range d.ContinuousAttrs() {
		have := map[uint64]bool{}
		for _, c := range dup[attr] {
			have[math.Float64bits(c)] = true
		}
		for _, c := range base[attr] {
			if !have[math.Float64bits(c)] {
				if len(div) < maxReport {
					div = append(div, Divergence{Check: "entropy-row-duplication",
						Detail: fmt.Sprintf("%s: cut %v lost after duplicating every row x%d (cuts %v -> %v)",
							d.Attr(attr).Name, c, m, base[attr], dup[attr])})
				}
			}
		}
	}
	return div
}

// ---------------------------------------------------------------------------
// MVD reference.

type mvdRefState struct {
	attr   int
	sorted []int
	rank   []int
	starts []int
}

func (s *mvdRefState) bins() int { return len(s.starts) - 1 }

func (s *mvdRefState) binOfRow(row int) int {
	r := s.rank[row]
	if r < 0 {
		return -1
	}
	return sort.Search(len(s.starts)-1, func(b int) bool { return s.starts[b+1] > r })
}

func newMVDRefState(d *dataset.Dataset, attr, binSize int) *mvdRefState {
	total := d.Rows()
	s := &mvdRefState{attr: attr}
	col := d.ContColumn(attr)
	s.sorted = make([]int, 0, total)
	for i := 0; i < total; i++ {
		if col[i] == col[i] {
			s.sorted = append(s.sorted, i)
		}
	}
	n := len(s.sorted)
	sort.SliceStable(s.sorted, func(a, b int) bool { return col[s.sorted[a]] < col[s.sorted[b]] })
	s.rank = make([]int, total)
	for i := range s.rank {
		s.rank[i] = -1
	}
	for pos, row := range s.sorted {
		s.rank[row] = pos
	}
	s.starts = []int{0}
	for pos := binSize; pos < n; pos += binSize {
		p := pos
		for p < n && col[s.sorted[p]] == col[s.sorted[p-1]] {
			p++
		}
		if p < n && p > s.starts[len(s.starts)-1] {
			s.starts = append(s.starts, p)
		}
	}
	s.starts = append(s.starts, n)
	return s
}

func (s *mvdRefState) cutPoints(d *dataset.Dataset) []float64 {
	col := d.ContColumn(s.attr)
	cuts := make([]float64, 0, s.bins()-1)
	for b := 0; b < s.bins()-1; b++ {
		lastRow := s.sorted[s.starts[b+1]-1]
		cuts = append(cuts, col[lastRow])
	}
	return cuts
}

// RefMVDCuts transliterates Bay's MVD end to end: equi-frequency initial
// binning with tie snapping, best-first merging of the least-distinguished
// adjacent pair, and the Bonferroni-over-contexts similarity test, all on
// the reference chi-square.
func RefMVDCuts(d *dataset.Dataset, cfg mvd.Config) mvd.Result {
	if cfg.Alpha == 0 {
		cfg.Alpha = 0.05
	}
	if cfg.BinSize == 0 {
		cfg.BinSize = 100
	}
	if cfg.MaxSweeps == 0 {
		cfg.MaxSweeps = 50
	}
	contAttrs := d.ContinuousAttrs()
	states := make([]*mvdRefState, 0, len(contAttrs))
	for _, attr := range contAttrs {
		states = append(states, newMVDRefState(d, attr, cfg.BinSize))
	}
	res := mvd.Result{Cuts: make(map[int][]float64, len(states))}

	for sweep := 0; sweep < cfg.MaxSweeps; sweep++ {
		merged := false
		for _, s := range states {
			if mergeOnceRef(d, s, states, cfg.Alpha, &res.PairsEvaluated) {
				merged = true
			}
		}
		if !merged {
			break
		}
	}
	for _, s := range states {
		res.Cuts[s.attr] = s.cutPoints(d)
	}
	return res
}

func mergeOnceRef(d *dataset.Dataset, s *mvdRefState, all []*mvdRefState, alpha float64, pairs *int) bool {
	mergedAny := false
	for {
		bestPair := -1
		bestP := alpha
		for b := 0; b < s.bins()-1; b++ {
			*pairs++
			p := pairSimilarityRef(d, s, b, all)
			if p > bestP {
				bestP = p
				bestPair = b
			}
		}
		if bestPair == -1 {
			return mergedAny
		}
		s.starts = append(s.starts[:bestPair+1], s.starts[bestPair+2:]...)
		mergedAny = true
		if s.bins() <= 1 {
			return mergedAny
		}
	}
}

func pairSimilarityRef(d *dataset.Dataset, s *mvdRefState, b int, all []*mvdRefState) float64 {
	lo1, hi1 := s.starts[b], s.starts[b+1]
	lo2, hi2 := s.starts[b+1], s.starts[b+2]

	nContexts := 1 + len(d.CategoricalAttrs()) + len(all) - 1
	minP := 1.0
	consider := func(p float64, ok bool) {
		if !ok {
			return
		}
		p *= float64(nContexts)
		if p > 1 {
			p = 1
		}
		if p < minP {
			minP = p
		}
	}

	consider(contextTestRef(func(row int) int { return d.Group(row) }, d.NumGroups(),
		s.sorted[lo1:hi1], s.sorted[lo2:hi2]))
	for _, attr := range d.CategoricalAttrs() {
		a := attr
		consider(contextTestRef(func(row int) int { return d.CatCode(a, row) },
			len(d.Domain(a)), s.sorted[lo1:hi1], s.sorted[lo2:hi2]))
	}
	for _, other := range all {
		if other.attr == s.attr {
			continue
		}
		o := other
		consider(contextTestRef(o.binOfRow, o.bins(),
			s.sorted[lo1:hi1], s.sorted[lo2:hi2]))
	}
	return minP
}

func contextTestRef(ctx func(row int) int, cardinality int, rows1, rows2 []int) (float64, bool) {
	if cardinality < 2 {
		return 1, false
	}
	obs := make([][]float64, 2)
	obs[0] = make([]float64, cardinality)
	obs[1] = make([]float64, cardinality)
	for _, r := range rows1 {
		if c := ctx(r); c >= 0 {
			obs[0][c]++
		}
	}
	for _, r := range rows2 {
		if c := ctx(r); c >= 0 {
			obs[1][c]++
		}
	}
	trimmed := [][]float64{{}, {}}
	for c := 0; c < cardinality; c++ {
		if obs[0][c]+obs[1][c] > 0 {
			trimmed[0] = append(trimmed[0], obs[0][c])
			trimmed[1] = append(trimmed[1], obs[1][c])
		}
	}
	if len(trimmed[0]) < 2 {
		return 1, false
	}
	_, p, _, ok := chiSquareTableRef(trimmed)
	if !ok {
		return 1, false
	}
	return p, true
}

// CheckMVD holds the production discretizer to the reference — cuts
// bit-for-bit plus the pairs-evaluated counter — and then drives the
// engine's full "mvd" pipeline (STUCCO over the binned dataset) through
// the STUCCO battery.
func CheckMVD(d *dataset.Dataset, cfg mvd.Config) []Divergence {
	got := mvd.DiscretizeDataset(d, cfg)
	ref := RefMVDCuts(d, cfg)
	div := diffCuts("mvd-cuts", d, got.Cuts, ref.Cuts)
	if got.PairsEvaluated != ref.PairsEvaluated {
		div = append(div, Divergence{Check: "mvd-cuts",
			Detail: fmt.Sprintf("pairs evaluated: production %d, reference %d",
				got.PairsEvaluated, ref.PairsEvaluated)})
	}
	if len(div) > 0 {
		return div
	}
	binned := dataset.Discretized(d, got.Cuts)
	return append(div, CheckSTUCCO(binned, stucco.Config{})...)
}

// CheckMVDInvariances verifies MVD's metamorphic relations: cut and counter
// bit-equality under row permutation (tie snapping makes bin membership a
// function of values, not of row order) and under group relabeling. There
// is deliberately no duplication relation — the initial partition depends
// on the absolute row count.
func CheckMVDInvariances(d *dataset.Dataset, cfg mvd.Config, seed int64) []Divergence {
	base := mvd.DiscretizeDataset(d, cfg)
	var div []Divergence
	variant := func(check string, vd *dataset.Dataset) {
		got := mvd.DiscretizeDataset(vd, cfg)
		div = append(div, diffCuts(check, d, got.Cuts, base.Cuts)...)
		if got.PairsEvaluated != base.PairsEvaluated {
			div = append(div, Divergence{Check: check,
				Detail: fmt.Sprintf("pairs evaluated: %d, baseline %d",
					got.PairsEvaluated, base.PairsEvaluated)})
		}
	}
	variant("mvd-row-permutation", PermuteRows(d, seed))
	relabeled, _ := RelabelGroups(d)
	variant("mvd-group-relabel", relabeled)
	return div
}
