package engine

import (
	"context"
	"fmt"

	"sdadcs/internal/core"
	"sdadcs/internal/dataset"
	"sdadcs/internal/entropy"
	"sdadcs/internal/mvd"
	"sdadcs/internal/stucco"
	"sdadcs/internal/subgroup"
)

func init() {
	Register(sdadcsMiner{})
	Register(stuccoMiner{})
	Register(mvdMiner{})
	Register(entropyMiner{})
	Register(subgroupMiner{})
}

// stuccoConfig maps the shared fields onto the STUCCO baseline's config
// (also the downstream search config for the mvd and entropy adapters).
func (c Config) stuccoConfig() stucco.Config {
	return stucco.Config{
		Alpha:    c.Alpha,
		Delta:    c.Delta,
		MaxDepth: c.MaxDepth,
		TopK:     c.TopK,
		Measure:  c.Measure,
		Attrs:    c.Attrs,
		Workers:  c.Workers,
		Metrics:  c.Metrics,
		Trace:    c.Trace,
	}
}

// stuccoKey is the canonical-key fragment of the shared categorical
// search, defaults resolved as stucco.Config does.
func stuccoKey(c Config) string {
	alpha, delta, depth, topk := c.Alpha, c.Delta, c.MaxDepth, c.TopK
	if alpha == 0 {
		alpha = 0.05
	}
	if delta == 0 {
		delta = 0.1
	}
	if depth == 0 {
		depth = 5
	}
	if topk == 0 {
		topk = 100
	}
	if topk == TopKUnbounded {
		topk = 0
	}
	return fmt.Sprintf("alpha=%.17g;delta=%.17g;depth=%d;topk=%d;measure=%s;attrs=%s",
		alpha, delta, depth, topk, c.Measure, attrsKey(c.Attrs))
}

// sdadcsMiner adapts the paper's own search (internal/core).
type sdadcsMiner struct{}

func (sdadcsMiner) Name() string { return "sdadcs" }
func (sdadcsMiner) Description() string {
	return "the paper's SDAD-CS search: levelwise attribute combinations, statistically-guided median splits for continuous attributes, meaningfulness filter"
}

func (sdadcsMiner) Mine(ctx context.Context, d *dataset.Dataset, cfg Config) (Result, error) {
	res, err := core.MineContext(ctx, d, cfg.coreConfig())
	return Result{
		Contrasts: res.Contrasts,
		Meaning:   res.Meaning,
		Stats:     res.Stats,
		Metrics:   res.Metrics,
		Trace:     res.Trace,
	}, err
}

func (sdadcsMiner) CanonicalKey(cfg Config) string {
	return "algorithm=sdadcs;" + cfg.coreConfig().CanonicalKey()
}

// stuccoMiner adapts the STUCCO baseline (categorical attributes only).
type stuccoMiner struct{}

func (stuccoMiner) Name() string { return "stucco" }
func (stuccoMiner) Description() string {
	return "STUCCO contrast-set mining over the categorical attributes (Bay & Pazzani 2001)"
}

func (stuccoMiner) Mine(ctx context.Context, d *dataset.Dataset, cfg Config) (Result, error) {
	res, err := stucco.MineContext(ctx, d, cfg.stuccoConfig())
	out := Result{
		Contrasts: res.Contrasts,
		Stats: core.Stats{
			PartitionsEvaluated: res.Candidates,
			SpacesPruned:        res.Pruned,
		},
	}
	out.instrument(cfg)
	return out, err
}

func (stuccoMiner) CanonicalKey(cfg Config) string {
	return "algorithm=stucco;" + stuccoKey(cfg)
}

// mvdMiner adapts MVD discretization feeding the shared categorical
// search.
type mvdMiner struct{}

func (mvdMiner) Name() string { return "mvd" }
func (mvdMiner) Description() string {
	return "MVD multivariate discretization (Bay 2000) then the shared categorical search over the binned data"
}

func (mvdMiner) Mine(ctx context.Context, d *dataset.Dataset, cfg Config) (Result, error) {
	disc := mvd.DiscretizeDataset(d, mvd.Config{
		Alpha:     cfg.Alpha,
		BinSize:   cfg.BinSize,
		MaxSweeps: cfg.MaxSweeps,
	})
	binned := dataset.Discretized(d, disc.Cuts)
	res, err := stucco.MineContext(ctx, binned, cfg.stuccoConfig())
	out := Result{
		Contrasts: res.Contrasts,
		Binned:    binned,
		Cuts:      disc.Cuts,
		Stats: core.Stats{
			PartitionsEvaluated: disc.PairsEvaluated + res.Candidates,
			SpacesPruned:        res.Pruned,
		},
	}
	out.instrument(cfg)
	return out, err
}

func (mvdMiner) CanonicalKey(cfg Config) string {
	binSize, maxSweeps := cfg.BinSize, cfg.MaxSweeps
	if binSize == 0 {
		binSize = 100
	}
	if maxSweeps == 0 {
		maxSweeps = 50
	}
	return fmt.Sprintf("algorithm=mvd;binsize=%d;maxsweeps=%d;%s", binSize, maxSweeps, stuccoKey(cfg))
}

// entropyMiner adapts entropy/MDLP discretization feeding the shared
// categorical search.
type entropyMiner struct{}

func (entropyMiner) Name() string { return "entropy" }
func (entropyMiner) Description() string {
	return "entropy/MDLP discretization (Fayyad & Irani 1993) then the shared categorical search over the binned data"
}

func (entropyMiner) Mine(ctx context.Context, d *dataset.Dataset, cfg Config) (Result, error) {
	cuts := entropy.DiscretizeDataset(d)
	binned := dataset.Discretized(d, cuts)
	res, err := stucco.MineContext(ctx, binned, cfg.stuccoConfig())
	out := Result{
		Contrasts: res.Contrasts,
		Binned:    binned,
		Cuts:      cuts,
		Stats: core.Stats{
			PartitionsEvaluated: res.Candidates,
			SpacesPruned:        res.Pruned,
		},
	}
	out.instrument(cfg)
	return out, err
}

func (entropyMiner) CanonicalKey(cfg Config) string {
	// The MDLP pass has no knobs; the key is the downstream search's.
	return "algorithm=entropy;" + stuccoKey(cfg)
}

// subgroupMiner adapts Cortana-style subgroup discovery.
type subgroupMiner struct{}

func (subgroupMiner) Name() string { return "subgroup" }
func (subgroupMiner) Description() string {
	return "Cortana-style beam subgroup discovery with WRACC and interval conditions, pooled across groups"
}

func (subgroupMiner) Mine(ctx context.Context, d *dataset.Dataset, cfg Config) (Result, error) {
	res, err := subgroup.MineContext(ctx, d, subgroup.Config{
		BeamWidth:   cfg.BeamWidth,
		Depth:       cfg.MaxDepth,
		Bins:        cfg.Bins,
		TopK:        cfg.TopK,
		MinCoverage: cfg.MinCoverage,
		MinQuality:  cfg.MinQuality,
		Measure:     cfg.Measure,
		Workers:     cfg.Workers,
		Metrics:     cfg.Metrics,
		Trace:       cfg.Trace,
	})
	out := Result{
		Contrasts: res.Contrasts,
		Stats:     core.Stats{PartitionsEvaluated: res.Evaluated},
	}
	out.instrument(cfg)
	return out, err
}

func (subgroupMiner) CanonicalKey(cfg Config) string {
	beam, depth, bins, topk, cov, qual := cfg.BeamWidth, cfg.MaxDepth, cfg.Bins, cfg.TopK, cfg.MinCoverage, cfg.MinQuality
	if beam == 0 {
		beam = 100
	}
	if depth == 0 {
		depth = 2
	}
	if bins == 0 {
		bins = 8
	}
	if topk == 0 {
		topk = 100
	}
	if topk == TopKUnbounded {
		topk = 0
	}
	if cov == 0 {
		cov = 2
	}
	if qual == 0 {
		qual = 0.01
	}
	return fmt.Sprintf("algorithm=subgroup;beam=%d;depth=%d;bins=%d;topk=%d;mincoverage=%d;minquality=%.17g;measure=%s",
		beam, depth, bins, topk, cov, qual, cfg.Measure)
}
