package core

import (
	"sdadcs/internal/metrics"
	"sdadcs/internal/pattern"
	"sdadcs/internal/trace"
)

// OEMode selects how the optimistic estimate's maximum child-space size
// (Eq. 6) is computed.
type OEMode int

const (
	// OEModePaper assumes real-valued data with unique readings, so a
	// median split distributes a space's rows evenly over its 2^|ca|
	// children (the paper's assumption). Tightest pruning; can in
	// principle over-prune on heavily tied data.
	OEModePaper OEMode = iota
	// OEModeConservative bounds a child space only by the fact that it is
	// a proper sub-box of its parent (n − 1 rows) — admissible regardless
	// of ties. A half-open median split on tied data can be arbitrarily
	// lopsided ({1,1,1,2} puts 3 of 4 rows in the low child), so no
	// fixed-fraction bound is sound; the correctness oracle mines in this
	// mode to guarantee the production search is exhaustive.
	OEModeConservative
)

// String names the mode.
func (m OEMode) String() string {
	if m == OEModeConservative {
		return "conservative"
	}
	return "paper"
}

// Pruning toggles the individual search-space reduction strategies of
// §3/§4.3. The zero value disables everything (the basis of SDAD-CS NP).
type Pruning struct {
	// MinDeviation prunes spaces without support above δ in any group.
	MinDeviation bool
	// ExpectedCount prunes spaces whose expected group-cell count is
	// below 5, where chi-square tests are invalid.
	ExpectedCount bool
	// ChiSquareOE stops recursion when even the most extreme
	// specialization cannot reach the chi-square critical value.
	ChiSquareOE bool
	// RedundancyCLT prunes spaces whose support difference is
	// statistically the same as a subset's (Eq. 14–16).
	RedundancyCLT bool
	// PureSpace stops extending spaces with PR = 1 — adding attributes to
	// a single-group space only creates redundant contrasts.
	PureSpace bool
	// LookupTable records pruned itemsets and cuts any later space having
	// a pruned subset.
	LookupTable bool
}

// AllPruning enables every strategy (the SDAD-CS default).
func AllPruning() Pruning {
	return Pruning{
		MinDeviation:  true,
		ExpectedCount: true,
		ChiSquareOE:   true,
		RedundancyCLT: true,
		PureSpace:     true,
		LookupTable:   true,
	}
}

// NPPruning is the "SDAD-CS NP" (No Pruning) configuration used in the
// paper's quantitative comparison: the feasibility rules that merely keep
// statistics valid stay on, but redundancy, purity and lookup-table
// pruning — the rules that suppress non-meaningful contrasts — are off.
func NPPruning() Pruning {
	return Pruning{
		MinDeviation:  true,
		ExpectedCount: true,
	}
}

// TopKUnbounded disables the top-k result bound: every admissible
// contrast is retained. The correctness oracle mines with this sentinel so
// the production search enumerates exactly what the reference
// implementation does (a bounded list prunes recursion through its dynamic
// threshold).
const TopKUnbounded = -1

// Config controls a mining run. The zero value is usable: it maps to the
// paper's experimental setup (α = 0.05, δ = 0.1, depth 5, top-100,
// support-difference measure, all pruning, meaningfulness filter on).
type Config struct {
	// Alpha is the initial significance level (default 0.05). It is
	// Bonferroni-adjusted per level as in STUCCO.
	Alpha float64
	// Delta is the minimum support difference (default 0.1).
	Delta float64
	// MaxDepth bounds the number of attributes per combination
	// (default 5, the paper's stunted search tree).
	MaxDepth int
	// MaxRecursion bounds SDAD-CS's median-split recursion (default 8).
	MaxRecursion int
	// TopK bounds the result list (default 100). TopKUnbounded (-1)
	// disables the bound entirely — every admissible contrast is kept and
	// the dynamic threshold never rises above the score floor. (0 selects
	// the default, like every other zero field.)
	TopK int
	// Measure drives the search (default SupportDiff; the paper uses
	// SurprisingMeasure for its qualitative analyses).
	Measure pattern.Measure
	// OEMode selects the optimistic-estimate variant (default paper).
	OEMode OEMode
	// Pruning toggles search-space reduction; nil means AllPruning.
	Pruning *Pruning
	// SkipMeaningfulFilter disables the final productive / independently
	// productive / non-redundant filter (the NP variant sets this).
	SkipMeaningfulFilter bool
	// RecordExploredSpaces also records a space as a contrast candidate
	// when its children were explored (Algorithm 1 keeps only the refined
	// children). The NP variant sets this: without pruning, the coarse
	// parent spaces are part of the pattern pool, which is how the paper's
	// §5.5.2 finds "similar ones" to Cortana's top patterns.
	RecordExploredSpaces bool
	// Attrs restricts mining to these attribute indices; nil = all.
	Attrs []int
	// DFS explores attribute combinations depth-first instead of
	// levelwise. The paper argues against it (§4.1): a depth-first order
	// cannot exploit subset results discovered later and cannot size the
	// Bonferroni adjustment per level. Provided for the search-order
	// ablation.
	DFS bool
	// Workers > 1 mines each level's combinations in parallel (§6's
	// scaling strategy). Results are merged deterministically.
	Workers int
	// Metrics, when non-nil, receives live instrumentation from the hot
	// path: per-level node counts and wall times, per-rule prune hits,
	// SDAD-CS split/box/merge counters and top-k threshold updates. The
	// final snapshot is also attached to Result.Metrics. nil (the
	// default) disables instrumentation at near-zero cost — every record
	// site is guarded by a single pointer check.
	Metrics *metrics.Recorder
	// Trace, when non-nil, receives decision-level events from the whole
	// pipeline: node expansions, per-rule prune firings with the observed
	// statistic and the bound it was tested against, SDAD-CS split/merge
	// decisions, pattern emissions, and top-k admissions/evictions. The
	// run's snapshot is attached to Result.Trace and indexable by canonical
	// itemset key (trace.NewIndex / Explain). nil (the default) disables
	// tracing with the same discipline as Metrics: one pointer check per
	// site, zero allocations.
	Trace *trace.Tracer
	// PprofLabels annotates per-level worker goroutines with pprof labels
	// (sdadcs_level, sdadcs_worker) so CPU profiles attribute samples to
	// search levels. Off by default: labels cost a map allocation per
	// goroutine spawn.
	PprofLabels bool
}

func (c *Config) defaults() {
	if c.Alpha == 0 {
		c.Alpha = 0.05
	}
	if c.Delta == 0 {
		c.Delta = 0.1
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 5
	}
	if c.MaxRecursion == 0 {
		c.MaxRecursion = 8
	}
	if c.TopK == 0 {
		c.TopK = 100
	}
	if c.TopK == TopKUnbounded {
		c.TopK = 0 // topk.List treats k <= 0 as unbounded
	}
	if c.Workers == 0 {
		c.Workers = 1
	}
}

// scoreFloor is the top-k admission floor. δ is a threshold on the
// support difference (Eq. 2); when the driving measure is the support
// difference itself the floor coincides with δ, but purity-based measures
// score large contrasts below δ routinely (PR × Diff ≤ Diff), so their
// floor is 0 — largeness is still enforced per space via Eq. 2.
func (c *Config) scoreFloor() float64 {
	if c.Measure == pattern.SupportDiff {
		return c.Delta
	}
	return 0
}

func (c *Config) pruning() Pruning {
	if c.Pruning == nil {
		return AllPruning()
	}
	return *c.Pruning
}

// NP returns the SDAD-CS NP variant of a configuration: meaningfulness
// pruning and filtering off, everything else identical.
func (c Config) NP() Config {
	p := NPPruning()
	c.Pruning = &p
	c.SkipMeaningfulFilter = true
	c.RecordExploredSpaces = true
	return c
}

// Stats reports the work a mining run performed; PartitionsEvaluated is
// the cost metric of the paper's Table 5.
type Stats struct {
	// PartitionsEvaluated counts spaces (and categorical value itemsets)
	// whose supports were counted.
	PartitionsEvaluated int
	// SpacesPruned counts spaces cut by any rule before evaluation of
	// their children.
	SpacesPruned int
	// SDADCalls counts invocations of the SDAD-CS discretization
	// (one per categorical-context × continuous-attribute-set combo).
	SDADCalls int
	// MergeOps counts successful bottom-up space merges.
	MergeOps int
	// FilteredOut counts contrasts removed by the final meaningfulness
	// filter.
	FilteredOut int
}

func (s *Stats) add(o Stats) {
	s.PartitionsEvaluated += o.PartitionsEvaluated
	s.SpacesPruned += o.SpacesPruned
	s.SDADCalls += o.SDADCalls
	s.MergeOps += o.MergeOps
	s.FilteredOut += o.FilteredOut
}

// Result is a mining outcome.
type Result struct {
	// Contrasts are sorted by descending score.
	Contrasts []pattern.Contrast
	// Meaning holds the meaningfulness classification of each contrast
	// (parallel to Contrasts) when the filter ran; nil otherwise.
	Meaning []Meaningfulness
	Stats   Stats
	// Metrics is the instrumentation snapshot taken when the run
	// finished; nil unless Config.Metrics was set.
	Metrics *metrics.Snapshot
	// Trace is the decision-event snapshot of the run; nil unless
	// Config.Trace was set.
	Trace *trace.Trace
}
