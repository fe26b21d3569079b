package main

import (
	"bytes"
	"runtime"
	"time"

	"sdadcs/internal/bitmap"
	"sdadcs/internal/core"
	"sdadcs/internal/datagen"
	"sdadcs/internal/dataset"
	"sdadcs/internal/metrics"
	"sdadcs/internal/oracle"
	"sdadcs/internal/trace"
)

// traceCapacity sizes the tracers of traced runs so that no event of one
// operation is dropped (a full-size categorical mine emits about 55,000).
const traceCapacity = 1 << 18

// minOps is the fewest operations a timed phase runs, however long they
// take, so that every phase has a median.
const minOps = 3

func runMineCategorical(r *runner) error {
	spec := datagen.UCISpec{Name: wlMineCat, Group0: "a", Group1: "b",
		N0: 60000, N1: 20000, Cat: 32, Strength: 0.5, Seed: r.opts.seed}
	if r.opts.tiny {
		spec.N0, spec.N1, spec.Cat = 600, 200, 8
	}
	return runMine(r, spec, core.Config{MaxDepth: 4, Workers: 1})
}

func runMineContinuous(r *runner) error {
	spec := datagen.UCISpec{Name: wlMineCont, Group0: "a", Group1: "b",
		N0: 1800, N1: 1400, Cat: 2, Cont: 24, Strength: 0.5, Seed: r.opts.seed}
	if r.opts.tiny {
		spec.N0, spec.N1, spec.Cont = 180, 140, 6
	}
	return runMine(r, spec, core.Config{MaxDepth: 2, Workers: 2})
}

// runMine drives a mine workload: generated CSV bytes are parsed and
// indexed (the set-up), then core.Mine runs back to back on the dataset.
func runMine(r *runner, spec datagen.UCISpec, cfg core.Config) error {
	csv, err := csvBytes(datagen.Planted(spec))
	if err != nil {
		return err
	}

	var d *dataset.Dataset
	var setups, parses, builds []float64
	for i := 0; moreSetups(i, setups); i++ {
		d = nil
		runtime.GC()
		t0 := time.Now()
		d, err = dataset.FromCSV(bytes.NewReader(csv), dataset.CSVOptions{GroupColumn: "group", Name: spec.Name})
		if err != nil {
			return err
		}
		t1 := time.Now()
		bitmap.Shared(d)
		t2 := time.Now()
		setups = append(setups, t2.Sub(t0).Seconds())
		parses = append(parses, t1.Sub(t0).Seconds())
		builds = append(builds, t2.Sub(t1).Seconds())
		op := r.nextOp()
		root := r.spans.add("setup", op, 0, t0, t2)
		r.spans.add("dataset.FromCSV", op, root, t0, t1)
		r.spans.add("bitmap.Shared", op, root, t1, t2)
	}
	r.set("setup_s", median(setups))
	r.set("dataset.parse_s", median(parses))
	r.set("bitmap.build_s", median(builds))
	r.logf("%d rows, %d attributes, set-up %.3fs", d.Rows(), d.NumAttrs(), median(setups))

	plain, traced := r.phases()
	runtime.GC()
	u := mineLoop(r, d, cfg, plain, 0, false)
	r.set("max_rss_mb", maxRSSMB())
	runtime.GC()
	t := mineLoop(r, d, cfg, traced, r.tracedOps(), true)
	r.ops(len(u.lat)+len(t.lat), 0)

	r.set("op_p50_s", median(u.lat))
	r.set("ops_per_s", float64(len(u.lat))/sum(u.lat))
	r.set("trace.overhead_ratio", ratio(median(t.lat), median(u.lat)))
	t.layers.report(r)
	r.logf("%d untraced mines, median %.4fs; %d traced, median %.4fs", len(u.lat), median(u.lat), len(t.lat), median(t.lat))

	// Correctness, outside the timed phases.
	first := fill(u.digests[0], max(len(u.digests), len(t.digests)))
	checkSame(r, "untraced mines", first, u.digests)
	checkSame(r, "traced mines", first, t.digests)
	div := oracle.CheckSoundness(d, cfg)
	for _, v := range div {
		r.logf("soundness: %s", v)
	}
	r.check(len(div) == 0, "oracle.CheckSoundness: %d divergences", len(div))
	return nil
}

// phaseResult is what one timed phase observed.
type phaseResult struct {
	lat     []float64 // seconds per operation
	digests []string  // result digest per operation
	layers  layerSamples
}

// mineLoop runs core.Mine back to back for budget (at least minOps times,
// at most maxOps when maxOps > 0). Traced, each mine gets a fresh
// metrics.Recorder and the phase's tracer, and its spans and layer metrics
// are recorded outside the timed call.
func mineLoop(r *runner, d *dataset.Dataset, cfg core.Config, budget time.Duration, maxOps int, traced bool) phaseResult {
	pr := phaseResult{layers: layerSamples{}}
	var tr *trace.Tracer
	if traced {
		tr = trace.New(traceCapacity)
	}
	deadline := time.Now().Add(budget)
	for i := 0; (i < minOps || time.Now().Before(deadline)) && (maxOps == 0 || i < maxOps); i++ {
		c := cfg
		var ms runtime.MemStats
		if traced {
			c.Metrics, c.Trace = metrics.New(), tr
			runtime.ReadMemStats(&ms)
		}
		base := time.Now().Add(-time.Duration(tr.Now()))
		t0 := time.Now()
		res := core.Mine(d, c)
		t1 := time.Now()
		pr.lat = append(pr.lat, t1.Sub(t0).Seconds())
		pr.digests = append(pr.digests, digest(res.Contrasts))
		if !traced {
			continue
		}
		alloc := ms.TotalAlloc
		runtime.ReadMemStats(&ms)
		lm := workOf(res.Metrics, res.Trace).layerMetrics(float64(t1.Sub(t0)))
		lm["core.alloc_bytes"] = float64(ms.TotalAlloc - alloc)
		pr.layers.add(lm)
		op := r.nextOp()
		mine := r.spans.add("core.Mine", op, 0, t0, t1)
		r.spans.addTraceSpans(res.Trace, op, mine, base)
		if res.Trace.Dropped > 0 {
			r.logf("warning: tracer dropped %d events", res.Trace.Dropped)
		}
		tr.Drain()
	}
	return pr
}

// phases splits the run's budget: an untraced run spends it all on the
// untraced phase and checks one traced operation; a traced run splits it
// evenly.
func (r *runner) phases() (plain, traced time.Duration) {
	if r.opts.trace {
		return r.opts.budget / 2, r.opts.budget / 2
	}
	return r.opts.budget, 0
}

// tracedOps bounds the traced phase: one operation in an untraced run
// (enough to compare its result), unbounded in a traced run.
func (r *runner) tracedOps() int {
	if r.opts.trace {
		return 0
	}
	return 1
}

// nextOp returns a fresh operation ID for spans.
func (r *runner) nextOp() int64 {
	r.opSeq++
	return r.opSeq
}
