package oracle

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"sdadcs/internal/core"
	"sdadcs/internal/dataset"
	"sdadcs/internal/metrics"
	"sdadcs/internal/pattern"
	"sdadcs/internal/trace"
)

// This file holds the metamorphic layer: dataset transformations whose
// effect on the mining result is known a priori, plus the comparison
// batteries that hold the production miner to those predictions.
//
// Bit-equality relations (nothing about the problem changes):
//   - row permutation (the search never depends on row order),
//   - worker count (1 vs 8),
//   - instrumentation (metrics/trace attached vs nil).
//
// Canonical-equality relations (encodings change, semantics do not):
//   - group relabeling: swapping two group names permutes group indices
//     and support vectors; compared by group NAME the results are equal.
//   - column reordering: attribute indices and canonical keys change;
//     compared by attribute NAME the results are equal.
//
// Scaling relation:
//   - duplicating every row m times preserves supports exactly (m·c/m·s
//     reduces to c/s under IEEE division), preserves every lower-middle
//     median, multiplies every chi-square statistic by exactly m (so
//     significance can only sharpen) and leaves the Bonferroni schedule
//     untouched. Common keys must therefore scale counts exactly ×m with
//     bit-equal scores, and every categorical base pattern must survive.
//     Continuous patterns may legitimately differ: a child box that was
//     insignificant at n rows can become significant at m·n, and
//     Algorithm 1 then supersedes the parent the base run emitted.

// PermuteRows returns the dataset with its rows shuffled by the seed.
// Materialize preserves the categorical domain and group-name encodings,
// so every canonical key survives the shuffle verbatim.
func PermuteRows(d *dataset.Dataset, seed int64) *dataset.Dataset {
	perm := rand.New(rand.NewSource(seed)).Perm(d.Rows())
	return dataset.Materialize(d.Restrict(perm))
}

// DuplicateRows returns the dataset with every row repeated m times
// (copies adjacent, so first-appearance encodings are unchanged).
func DuplicateRows(d *dataset.Dataset, m int) *dataset.Dataset {
	rowMap := make([]int, 0, d.Rows()*m)
	for r := 0; r < d.Rows(); r++ {
		for c := 0; c < m; c++ {
			rowMap = append(rowMap, r)
		}
	}
	order := make([]int, d.NumAttrs())
	for i := range order {
		order[i] = i
	}
	return rebuild(d, fmt.Sprintf("%s-x%d", d.Name(), m), order, rowMap, nil)
}

// ReorderColumns returns the dataset with its attributes re-added in the
// given order. Per-column value order is unchanged, so categorical codes
// are stable; only attribute indices (and with them canonical keys) move.
func ReorderColumns(d *dataset.Dataset, order []int) *dataset.Dataset {
	rowMap := make([]int, d.Rows())
	for i := range rowMap {
		rowMap[i] = i
	}
	return rebuild(d, d.Name()+"-reordered", order, rowMap, nil)
}

// RelabelGroups swaps the first two group names and returns the rebuilt
// dataset plus the rename function mapping ORIGINAL names to new ones
// (its own inverse, since it is a transposition).
func RelabelGroups(d *dataset.Dataset) (*dataset.Dataset, func(string) string) {
	a, b := d.GroupName(0), d.GroupName(1)
	rename := func(name string) string {
		switch name {
		case a:
			return b
		case b:
			return a
		}
		return name
	}
	rowMap := make([]int, d.Rows())
	for i := range rowMap {
		rowMap[i] = i
	}
	order := make([]int, d.NumAttrs())
	for i := range order {
		order[i] = i
	}
	return rebuild(d, d.Name()+"-relabeled", order, rowMap, rename), rename
}

// rebuild reconstructs a dataset through the public Builder: attributes in
// the given order, rows through rowMap, group labels optionally renamed.
func rebuild(d *dataset.Dataset, name string, attrOrder, rowMap []int, rename func(string) string) *dataset.Dataset {
	b := dataset.NewBuilder(name)
	for _, a := range attrOrder {
		at := d.Attr(a)
		if at.Kind == dataset.Categorical {
			vals := make([]string, len(rowMap))
			for i, r := range rowMap {
				vals[i] = d.CatValue(a, r)
			}
			b.AddCategorical(at.Name, vals)
		} else {
			vals := make([]float64, len(rowMap))
			for i, r := range rowMap {
				vals[i] = d.Cont(a, r)
			}
			b.AddContinuous(at.Name, vals)
		}
	}
	labels := make([]string, len(rowMap))
	for i, r := range rowMap {
		g := d.GroupName(d.Group(r))
		if rename != nil {
			g = rename(g)
		}
		labels[i] = g
	}
	b.SetGroups(labels)
	return b.MustBuild()
}

// mineFor runs the production miner and converts an error into a
// divergence so batteries can report instead of panicking.
func mineFor(check string, d *dataset.Dataset, cfg core.Config) ([]pattern.Contrast, []Divergence) {
	res, err := core.MineContext(context.Background(), d, cfg)
	if err != nil {
		return nil, []Divergence{{Check: check, Detail: "production miner error: " + err.Error()}}
	}
	return res.Contrasts, nil
}

// CheckBitEquality runs the production miner under every configuration
// pair that must not change a single bit of the result: one worker vs
// eight, instrumentation attached vs nil, and the original dataset vs a
// row permutation.
func CheckBitEquality(d *dataset.Dataset, cfg core.Config, seed int64) []Divergence {
	base, div := mineFor("bit-equality", d, cfg)
	if div != nil {
		return div
	}
	variant := func(check string, vd *dataset.Dataset, mut func(*core.Config)) {
		vcfg := cfg
		if mut != nil {
			mut(&vcfg)
		}
		got, errDiv := mineFor(check, vd, vcfg)
		if errDiv != nil {
			div = append(div, errDiv...)
			return
		}
		div = append(div, diffContrastLists(check, got, base)...)
	}
	variant("workers-8-vs-1", d, func(c *core.Config) { c.Workers = 8 })
	variant("instrumentation-on-vs-off", d, func(c *core.Config) {
		c.Metrics = metrics.New()
		c.Trace = trace.New(1 << 16)
	})
	variant("row-permutation", PermuteRows(d, seed), nil)
	return div
}

// canonicalPattern renders a contrast independently of attribute indices
// and group encodings: items by attribute name (value string or range
// bounds), sorted; per-group counts by (optionally renamed) group name,
// sorted. Score/χ²/P are functions of the counts and sizes, so count
// equality implies their equality and they are omitted.
func canonicalPattern(d *dataset.Dataset, c pattern.Contrast, rename func(string) string) string {
	items := make([]string, 0, c.Set.Len())
	for _, it := range c.Set.Items() {
		name := d.Attr(it.Attr).Name
		if it.Kind == dataset.Categorical {
			items = append(items, fmt.Sprintf("%s=%s", name, d.Domain(it.Attr)[it.Code]))
		} else {
			items = append(items, fmt.Sprintf("%s@(%b,%b]", name, it.Range.Lo, it.Range.Hi))
		}
	}
	sort.Strings(items)
	sups := make([]string, 0, len(c.Supports.Count))
	for g := range c.Supports.Count {
		gn := d.GroupName(g)
		if rename != nil {
			gn = rename(gn)
		}
		sups = append(sups, fmt.Sprintf("%s:%d/%d", gn, c.Supports.Count[g], c.Supports.Size[g]))
	}
	sort.Strings(sups)
	return strings.Join(items, "&") + " | " + strings.Join(sups, ",")
}

// diffCanonical compares two result sets in canonical (name-based) form.
func diffCanonical(check string, dA *dataset.Dataset, a []pattern.Contrast, renameA func(string) string,
	dB *dataset.Dataset, b []pattern.Contrast) []Divergence {
	var div []Divergence
	report := func(detail string) {
		if len(div) < maxReport {
			div = append(div, Divergence{Check: check, Detail: detail})
		}
	}
	setA := make(map[string]bool, len(a))
	for _, c := range a {
		setA[canonicalPattern(dA, c, renameA)] = true
	}
	setB := make(map[string]bool, len(b))
	for _, c := range b {
		setB[canonicalPattern(dB, c, nil)] = true
	}
	for p := range setA {
		if !setB[p] {
			report("only in baseline: " + p)
		}
	}
	for p := range setB {
		if !setA[p] {
			report("only in transformed: " + p)
		}
	}
	return div
}

// CheckRelabel verifies that swapping two group names merely renames the
// support vectors: compared by group name, the pattern sets are equal.
func CheckRelabel(d *dataset.Dataset, cfg core.Config) []Divergence {
	base, div := mineFor("group-relabel", d, cfg)
	if div != nil {
		return div
	}
	rd, rename := RelabelGroups(d)
	got, errDiv := mineFor("group-relabel", rd, cfg)
	if errDiv != nil {
		return errDiv
	}
	return diffCanonical("group-relabel", d, base, rename, rd, got)
}

// CheckReorder verifies the invariants that survive reordering columns.
// Full name-based equality does NOT hold, and the harness discovered why:
// the levelwise search extends a continuous combination only if its
// discretization split (the aliveness gate), and candidate generation only
// appends attributes with higher indices. An attribute set whose prefix
// (in column order) contains a dead continuous attribute is therefore
// unreachable in one ordering and reachable in another — e.g. with a
// constant cont0 before a splittable cont1, {cat, cont0, cont1} is never
// enumerated, while the reversed ordering reaches it and emits the same
// rows decorated with a tautological full-range cont0 item (pinned by
// TestLevelwiseColumnOrderSensitivity in internal/core). What MUST hold:
//
//   - categorical-only pattern sets are identical by name (their
//     enumeration has no aliveness gate: under an exhaustive config every
//     non-empty-cover itemset is tested in any order), and
//   - any two patterns from the two runs that impose the same conditions —
//     the same named items, verbatim — must carry identical per-group
//     counts.
//
// The second invariant deliberately does NOT drop full-range items before
// matching, and the harness is why: a full-range (−Inf, +Inf] item looks
// like a tautology but still requires the reading to be PRESENT — a NaN
// fails every interval comparison — so "cont0>6" and "cont0>6 ∧ cont1 any"
// cover different rows whenever cont1 has missing readings. An earlier
// draft of this check stripped the decoration and flagged exactly that
// one-row difference as a false divergence.
func CheckReorder(d *dataset.Dataset, cfg core.Config) []Divergence {
	base, div := mineFor("column-reorder", d, cfg)
	if div != nil {
		return div
	}
	order := make([]int, d.NumAttrs())
	for i := range order {
		order[i] = d.NumAttrs() - 1 - i
	}
	rd := ReorderColumns(d, order)
	got, errDiv := mineFor("column-reorder", rd, cfg)
	if errDiv != nil {
		return errDiv
	}
	report := func(detail string) {
		if len(div) < maxReport {
			div = append(div, Divergence{Check: "column-reorder", Detail: detail})
		}
	}

	// Categorical-only patterns: the tested itemsets are order-independent
	// (no aliveness gate), but the per-level Bonferroni α is NOT — |C_l|
	// counts the whole frontier, and the surviving continuous combinations
	// depend on column order. A pattern emitted under one ordering only is
	// therefore legitimate exactly when the other ordering's level α
	// rejects it; anything else is a divergence.
	refCfg := RefConfig(cfg)
	alphaBase := Mine(d, refCfg)
	alphaReord := Mine(rd, refCfg)
	catA, catB := map[string]pattern.Contrast{}, map[string]pattern.Contrast{}
	for _, c := range base {
		if categoricalOnly(c.Set) {
			items, _ := namedSignature(d, c)
			catA[items] = c
		}
	}
	for _, c := range got {
		if categoricalOnly(c.Set) {
			items, _ := namedSignature(rd, c)
			catB[items] = c
		}
	}
	onlyIn := func(have map[string]pattern.Contrast, other map[string]pattern.Contrast,
		otherAlpha Result, side string) {
		for items, c := range have {
			if _, ok := other[items]; ok {
				continue
			}
			// Recompute the order-independent p-value and hold the absence
			// to the other ordering's Bonferroni level.
			alpha := otherAlpha.Alpha(c.Set.Len())
			if _, p, ok := significant(c.Supports.Count, c.Supports.Size, alpha); ok {
				report(fmt.Sprintf("categorical pattern only in %s run but significant "+
					"under the other ordering too (p=%v, other alpha=%v): %s", side, p, alpha, items))
			}
		}
	}
	onlyIn(catA, catB, alphaReord, "baseline")
	onlyIn(catB, catA, alphaBase, "reordered")

	// Shared verbatim conditions must agree on counts.
	sigA := map[string]string{}
	for _, c := range base {
		items, counts := namedSignature(d, c)
		sigA[items] = counts
	}
	for _, c := range got {
		items, counts := namedSignature(rd, c)
		if want, ok := sigA[items]; ok && want != counts {
			report(fmt.Sprintf("condition %s counts: baseline %s, reordered %s", items, want, counts))
		}
	}
	return div
}

// namedSignature renders a contrast's conditions by attribute name (every
// item verbatim, full ranges included — see CheckReorder for why) and its
// per-group counts separately.
func namedSignature(d *dataset.Dataset, c pattern.Contrast) (items, counts string) {
	parts := make([]string, 0, c.Set.Len())
	for _, it := range c.Set.Items() {
		name := d.Attr(it.Attr).Name
		if it.Kind == dataset.Categorical {
			parts = append(parts, fmt.Sprintf("%s=%s", name, d.Domain(it.Attr)[it.Code]))
		} else {
			parts = append(parts, fmt.Sprintf("%s@(%b,%b]", name, it.Range.Lo, it.Range.Hi))
		}
	}
	sort.Strings(parts)
	sups := make([]string, 0, len(c.Supports.Count))
	for g := range c.Supports.Count {
		sups = append(sups, fmt.Sprintf("%s:%d/%d", d.GroupName(g), c.Supports.Count[g], c.Supports.Size[g]))
	}
	sort.Strings(sups)
	return strings.Join(parts, "&"), strings.Join(sups, ",")
}

// CheckDuplication verifies the row-scaling relation for m=2 under an
// unbounded configuration: every key present in both runs must have its
// counts scaled exactly ×m with a bit-identical score, and every
// categorical-only base pattern must survive (its χ² doubles, so it can
// only become more significant, and the Bonferroni schedule is unchanged).
func CheckDuplication(d *dataset.Dataset, cfg core.Config, m int) []Divergence {
	base, div := mineFor("row-duplication", d, cfg)
	if div != nil {
		return div
	}
	got, errDiv := mineFor("row-duplication", DuplicateRows(d, m), cfg)
	if errDiv != nil {
		return errDiv
	}
	report := func(key, detail string) {
		if len(div) < maxReport {
			div = append(div, Divergence{Check: "row-duplication", Key: key, Detail: detail})
		}
	}
	dupByKey := keySet(got)
	for _, b := range base {
		key := b.Set.Key()
		idx, ok := dupByKey[key]
		if !ok {
			if categoricalOnly(b.Set) {
				report(key, "categorical pattern lost after duplicating every row")
			}
			continue
		}
		g := got[idx]
		for i := range b.Supports.Count {
			if g.Supports.Count[i] != m*b.Supports.Count[i] {
				report(key, fmt.Sprintf("count[g%d]: base %d, x%d run %d",
					i, b.Supports.Count[i], m, g.Supports.Count[i]))
			}
		}
		if g.Score != b.Score {
			report(key, fmt.Sprintf("score changed under duplication: %v -> %v", b.Score, g.Score))
		}
	}
	return div
}

func categoricalOnly(s pattern.Itemset) bool {
	for _, it := range s.Items() {
		if it.Kind != dataset.Categorical {
			return false
		}
	}
	return true
}
