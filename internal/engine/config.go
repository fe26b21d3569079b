package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"strings"

	"sdadcs/internal/core"
	"sdadcs/internal/metrics"
	"sdadcs/internal/pattern"
	"sdadcs/internal/trace"
)

// TopKUnbounded disables the result bound for any algorithm.
const TopKUnbounded = -1

// Config is the canonical mining configuration, a superset of every
// algorithm's knobs. The zero value runs sdadcs with the paper's defaults;
// fields an algorithm does not use are ignored by it (and excluded from
// its canonical key).
type Config struct {
	// Algorithm selects the miner: "sdadcs" (default), "stucco", "mvd",
	// "entropy" or "subgroup".
	Algorithm string

	// Shared search knobs (defaults match the paper's setup).
	Alpha    float64 // significance level (0 → 0.05)
	Delta    float64 // minimum support difference (0 → 0.1)
	MaxDepth int     // attributes per combination / beam depth (0 → algorithm default)
	TopK     int     // result bound (0 → 100, TopKUnbounded → unbounded)
	Workers  int     // parallel workers (0 → 1); result-neutral
	Measure  pattern.Measure

	// sdadcs-only knobs.
	MaxRecursion         int         // SDAD-CS recursion bound (0 → 8)
	OEMode               core.OEMode // optimistic-estimate variant
	DFS                  bool        // depth-first ablation
	NP                   bool        // the paper's no-pruning variant
	SkipMeaningfulFilter bool

	// Attrs restricts mining to these attribute indices; nil = all
	// (sdadcs, stucco).
	Attrs []int

	// Subgroup-discovery knobs.
	BeamWidth   int     // beam width (0 → 100)
	Bins        int     // equal-frequency boundaries per numeric attribute (0 → 8)
	MinCoverage int     // minimum rows covered (0 → 2)
	MinQuality  float64 // minimum WRACC (0 → 0.01)

	// MVD discretization knobs.
	BinSize   int // initial equal-frequency bin size (0 → 100)
	MaxSweeps int // merge sweep bound (0 → 50)

	// Observability sinks, shared by every algorithm; result-neutral.
	Metrics *metrics.Recorder
	Trace   *trace.Tracer
}

// algorithm resolves the default algorithm name.
func (c Config) algorithm() string {
	if c.Algorithm == "" {
		return "sdadcs"
	}
	return c.Algorithm
}

// coreConfig maps the shared + sdadcs fields onto core.Config.
func (c Config) coreConfig() core.Config {
	cc := core.Config{
		Alpha:                c.Alpha,
		Delta:                c.Delta,
		MaxDepth:             c.MaxDepth,
		MaxRecursion:         c.MaxRecursion,
		TopK:                 c.TopK,
		Measure:              c.Measure,
		OEMode:               c.OEMode,
		DFS:                  c.DFS,
		SkipMeaningfulFilter: c.SkipMeaningfulFilter,
		Attrs:                c.Attrs,
		Workers:              c.Workers,
		Metrics:              c.Metrics,
		Trace:                c.Trace,
	}
	if c.NP {
		cc = cc.NP()
	}
	return cc
}

// Validate checks the configuration, collecting every violation as a
// *core.FieldError and returning them joined (flat — an HTTP layer can
// unwrap one level and errors.As each entry). The shared fields reuse
// core.Config's validation verbatim; algorithm-specific knobs add their
// own range checks.
func (c Config) Validate() error {
	var errs []error
	bad := func(field string, value any, reason string) {
		errs = append(errs, &core.FieldError{Field: field, Value: value, Reason: reason})
	}
	if _, ok := Lookup(c.algorithm()); !ok {
		bad("Algorithm", c.Algorithm,
			"unknown algorithm; one of "+strings.Join(Algorithms(), ", "))
	}
	cc := c.coreConfig()
	if err := cc.Validate(); err != nil {
		// core joins its FieldErrors; flatten so ours stay one level deep.
		if u, ok := err.(interface{ Unwrap() []error }); ok {
			errs = append(errs, u.Unwrap()...)
		} else {
			errs = append(errs, err)
		}
	}
	if c.BeamWidth < 0 {
		bad("BeamWidth", c.BeamWidth, "beam width must be >= 1; 0 selects the default 100")
	}
	if c.Bins < 0 {
		bad("Bins", c.Bins, "bin count must be >= 1; 0 selects the default 8")
	}
	if c.MinCoverage < 0 {
		bad("MinCoverage", c.MinCoverage, "minimum coverage must be >= 0; 0 selects the default 2")
	}
	if math.IsNaN(c.MinQuality) || c.MinQuality < 0 {
		bad("MinQuality", c.MinQuality, "minimum quality must be >= 0; 0 selects the default 0.01")
	}
	if c.BinSize < 0 {
		bad("BinSize", c.BinSize, "bin size must be >= 2; 0 selects the default 100")
	}
	if c.MaxSweeps < 0 {
		bad("MaxSweeps", c.MaxSweeps, "sweep bound must be >= 1; 0 selects the default 50")
	}
	return errors.Join(errs...)
}

// CanonicalKey serializes the result-affecting fields for the configured
// algorithm, defaults resolved, in a fixed order. Two configs producing
// the same mining result by construction share a key — the serving
// layer's result cache and singleflight deduplication are addressed by
// its hash.
func (c Config) CanonicalKey() string {
	if m, ok := Lookup(c.algorithm()); ok {
		return m.CanonicalKey(c)
	}
	return "algorithm=" + c.algorithm()
}

// CanonicalHash is the hex-encoded SHA-256 of CanonicalKey truncated to
// 16 bytes, matching core.Config.CanonicalHash's format.
func (c Config) CanonicalHash() string {
	sum := sha256.Sum256([]byte(c.CanonicalKey()))
	return hex.EncodeToString(sum[:16])
}

// attrsKey renders the Attrs restriction for canonical keys (sorted;
// "all" for nil), matching core.Config.CanonicalKey's convention.
func attrsKey(attrs []int) string {
	if attrs == nil {
		return "all"
	}
	sorted := append([]int(nil), attrs...)
	for i := 1; i < len(sorted); i++ { // insertion sort; attr lists are tiny
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	var b strings.Builder
	for i, a := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", a)
	}
	return b.String()
}
