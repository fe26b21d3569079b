package sdadcs_test

// One benchmark per paper table and figure (see DESIGN.md §4), plus
// ablation benchmarks for the design decisions the paper motivates:
// pruning strategies, optimistic-estimate mode, interest measure, search
// order, and per-level parallelism. Benchmarks run on Quick-scaled
// synthetic data so the whole suite finishes in minutes; shapes, not
// absolute times, are the reproduction target (EXPERIMENTS.md).

import (
	"runtime"
	"testing"

	"sdadcs"
	"sdadcs/internal/core"
	"sdadcs/internal/datagen"
	"sdadcs/internal/experiments"
	"sdadcs/internal/pattern"
)

func benchOpts() experiments.Options {
	return experiments.Options{Quick: true}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Figure2(benchOpts())
		if len(res.Contrasts) == 0 {
			b.Fatal("no bins")
		}
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Figure3(benchOpts())
		if len(res.Tables) != 4 {
			b.Fatal("missing tables")
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Figure4(benchOpts())
		if len(res.Age) == 0 {
			b.Fatal("no bins")
		}
	}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Table1(benchOpts())
		if len(res.Table.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Table2(benchOpts()).Rows) != 10 {
			b.Fatal("bad table 2")
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Table3(benchOpts())
		if len(res.Top) == 0 {
			b.Fatal("no top patterns")
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Table4(benchOpts())
		if len(res.Rows) != 10 {
			b.Fatal("missing datasets")
		}
	}
}

func BenchmarkTable5(b *testing.B) {
	var parts int
	for i := 0; i < b.N; i++ {
		res := experiments.Table5(benchOpts())
		if len(res.Rows) != 10 {
			b.Fatal("missing datasets")
		}
		parts = 0
		for _, r := range res.Rows {
			parts += r.PartsSDAD
		}
	}
	b.ReportMetric(float64(parts), "partitions")
}

func BenchmarkTable6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Table6(benchOpts())
		if len(res.Rows) != 10 {
			b.Fatal("missing datasets")
		}
	}
}

func BenchmarkTable7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Table7(benchOpts())
		if len(res.Contrasts) == 0 {
			b.Fatal("no contrasts")
		}
	}
}

func BenchmarkScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Scaling(benchOpts())
		if len(res.Points) != 3 {
			b.Fatal("missing points")
		}
	}
}

// ablationData is the shared workload for the ablation benchmarks: the
// Adult-like dataset restricted to the attributes the paper's qualitative
// analysis uses.
func ablationData() (*sdadcs.Dataset, []int) {
	d := datagen.Adult(datagen.AdultConfig{Seed: 9, Bachelors: 2000, Doctorate: 400})
	attrs := []int{
		d.AttrIndex("age"), d.AttrIndex("hours_per_week"),
		d.AttrIndex("occupation"), d.AttrIndex("sex"),
	}
	return d, attrs
}

// BenchmarkAblationPruning quantifies each §4.3 strategy: disable one at a
// time and report the partitions evaluated.
func BenchmarkAblationPruning(b *testing.B) {
	d, attrs := ablationData()
	variants := []struct {
		name   string
		mutate func(*core.Pruning)
	}{
		{"all-on", func(*core.Pruning) {}},
		{"no-min-deviation", func(p *core.Pruning) { p.MinDeviation = false }},
		{"no-expected-count", func(p *core.Pruning) { p.ExpectedCount = false }},
		{"no-chisq-oe", func(p *core.Pruning) { p.ChiSquareOE = false }},
		{"no-redundancy-clt", func(p *core.Pruning) { p.RedundancyCLT = false }},
		{"no-pure-space", func(p *core.Pruning) { p.PureSpace = false }},
		{"no-lookup-table", func(p *core.Pruning) { p.LookupTable = false }},
		{"none", func(p *core.Pruning) { *p = core.Pruning{} }},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			pr := core.AllPruning()
			v.mutate(&pr)
			var parts int
			for i := 0; i < b.N; i++ {
				res := core.Mine(d, core.Config{
					Attrs: attrs, MaxDepth: 2, Pruning: &pr,
					SkipMeaningfulFilter: true,
				})
				parts = res.Stats.PartitionsEvaluated
			}
			b.ReportMetric(float64(parts), "partitions")
		})
	}
}

// BenchmarkAblationOEMode compares the paper's equal-distribution estimate
// (Eq. 6) with the tie-safe conservative bound.
func BenchmarkAblationOEMode(b *testing.B) {
	d, attrs := ablationData()
	for _, mode := range []core.OEMode{core.OEModePaper, core.OEModeConservative} {
		b.Run(mode.String(), func(b *testing.B) {
			var parts int
			for i := 0; i < b.N; i++ {
				res := core.Mine(d, core.Config{
					Attrs: attrs, MaxDepth: 2, OEMode: mode,
					SkipMeaningfulFilter: true,
				})
				parts = res.Stats.PartitionsEvaluated
			}
			b.ReportMetric(float64(parts), "partitions")
		})
	}
}

// BenchmarkAblationMeasure compares the driving interest measures.
func BenchmarkAblationMeasure(b *testing.B) {
	d, attrs := ablationData()
	for _, m := range []pattern.Measure{
		pattern.SupportDiff, pattern.PurityRatio, pattern.SurprisingMeasure,
	} {
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Mine(d, core.Config{
					Attrs: attrs, MaxDepth: 2, Measure: m,
					SkipMeaningfulFilter: true,
				})
			}
		})
	}
}

// BenchmarkAblationSearch compares levelwise (the paper's choice) with
// depth-first combination order.
func BenchmarkAblationSearch(b *testing.B) {
	d, attrs := ablationData()
	for _, dfs := range []bool{false, true} {
		name := "levelwise"
		if dfs {
			name = "depth-first"
		}
		b.Run(name, func(b *testing.B) {
			var parts int
			for i := 0; i < b.N; i++ {
				res := core.Mine(d, core.Config{
					Attrs: attrs, MaxDepth: 2, DFS: dfs,
					SkipMeaningfulFilter: true,
				})
				parts = res.Stats.PartitionsEvaluated
			}
			b.ReportMetric(float64(parts), "partitions")
		})
	}
}

// BenchmarkAblationParallel measures the §6 per-level parallel strategy.
func BenchmarkAblationParallel(b *testing.B) {
	d := datagen.Manufacturing(datagen.ManufacturingConfig{
		Seed: 9, Population: 4000, Failed: 1000, Features: 40,
	})
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		b.Run(benchName(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Mine(d, core.Config{
					MaxDepth: 2, Workers: workers,
					SkipMeaningfulFilter: true,
				})
			}
		})
	}
}

func benchName(workers int) string {
	switch workers {
	case 1:
		return "workers-1"
	case 2:
		return "workers-2"
	default:
		return "workers-max"
	}
}

// BenchmarkCounting times the bitmap support-counting engine on a
// categorical-heavy workload (where level-1/2 candidate covers dominate
// and AND+popcount pays off) and on a mixed workload (where SDAD-CS box
// recursion dominates).
func BenchmarkCounting(b *testing.B) {
	manuf := datagen.Manufacturing(datagen.ManufacturingConfig{
		Seed: 9, Population: 4000, Failed: 1000, Features: 40,
	})
	adult, adultAttrs := ablationData()
	workloads := []struct {
		name string
		d    *sdadcs.Dataset
		cfg  core.Config
	}{
		{
			// STUCCO-style run over the categorical attributes only:
			// candidate covers and group counts are the whole cost.
			name: "categorical-heavy",
			d:    manuf,
			cfg: core.Config{
				Attrs: manuf.CategoricalAttrs(), MaxDepth: 3,
				SkipMeaningfulFilter: true,
			},
		},
		{
			name: "mixed",
			d:    adult,
			cfg:  core.Config{Attrs: adultAttrs, MaxDepth: 2, SkipMeaningfulFilter: true},
		},
	}
	for _, w := range workloads {
		b.Run(w.name+"/bitmap", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := core.Mine(w.d, w.cfg)
				if len(res.Contrasts) == 0 {
					b.Fatal("no contrasts")
				}
			}
		})
	}
}

// BenchmarkMineCSVPipeline measures the full public-API path: CSV parse,
// mine, classify.
func BenchmarkMineCSVPipeline(b *testing.B) {
	d := datagen.Simulated2(5, 2000)
	for i := 0; i < b.N; i++ {
		res := sdadcs.Mine(d, sdadcs.Config{Measure: sdadcs.SurprisingMeasure})
		if len(res.Contrasts) == 0 {
			b.Fatal("no contrasts")
		}
	}
}

// BenchmarkMineMetrics is the paired observability benchmark: the same
// census-scale mining run without instrumentation (the default path — a
// nil recorder compiles to one pointer check per record site) and with a
// live metrics recorder. The disabled variant must stay within noise of
// the pre-instrumentation BenchmarkMine numbers; the enabled variant
// additionally reports per-level timings and per-rule prune counts.
func BenchmarkMineMetrics(b *testing.B) {
	d, attrs := ablationData()
	cfg := func() core.Config {
		return core.Config{Attrs: attrs, MaxDepth: 2, SkipMeaningfulFilter: true}
	}
	b.Run("disabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := core.Mine(d, cfg())
			if res.Metrics != nil {
				b.Fatal("metrics snapshot on uninstrumented run")
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		var snap *sdadcs.MetricsSnapshot
		for i := 0; i < b.N; i++ {
			c := cfg()
			c.Metrics = sdadcs.NewMetricsRecorder()
			snap = core.Mine(d, c).Metrics
		}
		if snap == nil || len(snap.Levels) == 0 {
			b.Fatal("no per-level timings recorded")
		}
		if snap.TotalPruned() == 0 {
			b.Fatal("no per-rule prune counts recorded")
		}
		b.ReportMetric(float64(snap.TotalPruned()), "prune-hits")
		b.ReportMetric(float64(snap.Levels[0].WallNanos), "level1-ns")
	})
}

// BenchmarkMineTrace is the paired tracing benchmark, the same discipline
// as BenchmarkMineMetrics: the disabled variant (nil tracer, one pointer
// check per decision site) must stay within noise of the untraced mine;
// the enabled variant pays for recording every decision event into the
// preallocated ring and reports the event volume.
func BenchmarkMineTrace(b *testing.B) {
	d, attrs := ablationData()
	cfg := func() core.Config {
		return core.Config{Attrs: attrs, MaxDepth: 2, SkipMeaningfulFilter: true}
	}
	b.Run("disabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := core.Mine(d, cfg())
			if res.Trace != nil {
				b.Fatal("trace snapshot on untraced run")
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		var tr *sdadcs.Trace
		for i := 0; i < b.N; i++ {
			c := cfg()
			c.Trace = sdadcs.NewTracer(0)
			tr = core.Mine(d, c).Trace
		}
		if tr == nil || len(tr.Events) == 0 {
			b.Fatal("no decision events recorded")
		}
		b.ReportMetric(float64(len(tr.Events)), "events")
		b.ReportMetric(float64(tr.Dropped), "dropped")
	})
}
