package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"sdadcs/internal/core"
	"sdadcs/internal/datagen"
	"sdadcs/internal/dataset"
	"sdadcs/internal/metrics"
	"sdadcs/internal/stream"
	"sdadcs/internal/trace"
)

// streamInput is the generated row sequence of the stream workload, as
// the tuples stream.Monitor.Append takes.
type streamInput struct {
	schema stream.Schema
	cont   [][]float64
	cat    [][]string
	group  []string
}

// streamRows turns a generated dataset into row tuples in a seeded
// shuffled order (the generator emits rows grouped by class, which would
// leave most windows single-group).
func streamRows(d *dataset.Dataset, seed int64) streamInput {
	in := streamInput{schema: stream.Schema{Name: d.Name()}}
	contAttrs, catAttrs := d.ContinuousAttrs(), d.CategoricalAttrs()
	for _, a := range contAttrs {
		in.schema.Continuous = append(in.schema.Continuous, d.Attr(a).Name)
	}
	for _, a := range catAttrs {
		in.schema.Categorical = append(in.schema.Categorical, d.Attr(a).Name)
	}
	for _, row := range rand.New(rand.NewSource(seed)).Perm(d.Rows()) {
		cont := make([]float64, len(contAttrs))
		for i, a := range contAttrs {
			cont[i] = d.Cont(a, row)
		}
		cat := make([]string, len(catAttrs))
		for i, a := range catAttrs {
			cat[i] = d.CatValue(a, row)
		}
		in.cont = append(in.cont, cont)
		in.cat = append(in.cat, cat)
		in.group = append(in.group, d.GroupName(d.Group(row)))
	}
	return in
}

func (in streamInput) rows() int { return len(in.group) }

// fill builds a monitor and appends the first window of rows: the set-up
// that leaves a saturated window ready for the first timed append.
func (in streamInput) fill(cfg stream.Config) (*stream.Monitor, error) {
	m, err := stream.NewMonitor(in.schema, cfg)
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.WindowSize; i++ {
		if _, err := m.Append(in.cont[i], in.cat[i], in.group[i]); err != nil {
			return nil, fmt.Errorf("fill append %d: %w", i, err)
		}
	}
	return m, nil
}

func runStream(r *runner) error {
	gen := datagen.ManufacturingConfig{Seed: r.opts.seed, Population: 16000, Failed: 4000, Features: 14}
	cfg := stream.Config{WindowSize: 2000, MineEvery: 500, Mining: core.Config{MaxDepth: 3}}
	if r.opts.tiny {
		gen.Population, gen.Failed = 800, 200
		cfg.WindowSize, cfg.MineEvery = 200, 50
	}
	in := streamRows(datagen.Manufacturing(gen), r.opts.seed)

	var m *stream.Monitor
	var setups []float64
	for i := 0; moreSetups(i, setups); i++ {
		m = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if m, err = in.fill(cfg); err != nil {
			return err
		}
		t1 := time.Now()
		setups = append(setups, t1.Sub(t0).Seconds())
		r.spans.add("setup", r.nextOp(), 0, t0, t1)
	}
	r.set("setup_s", median(setups))
	r.logf("%d rows in %d+%d columns, window %d, set-up %.3fs",
		in.rows(), len(in.schema.Continuous), len(in.schema.Categorical), cfg.WindowSize, median(setups))

	plain, tracedBudget := r.phases()
	runtime.GC()
	u := streamLoop(r, in, m, cfg, plain, 0, false)
	r.set("max_rss_mb", maxRSSMB())
	runtime.GC()
	tcfg := cfg
	tcfg.Mining.Metrics = metrics.New()
	tcfg.Mining.Trace = trace.New(traceCapacity)
	tm, err := in.fill(tcfg)
	if err != nil {
		return err
	}
	t := streamLoop(r, in, tm, tcfg, tracedBudget, r.tracedOps(), true)
	r.ops(u.appends+t.appends, u.errors+t.errors)

	r.set("op_p50_s", median(u.remine.lat))
	r.set("ops_per_s", float64(u.appends)/(sum(u.plainLat)+sum(u.remine.lat)))
	r.set("trace.overhead_ratio", ratio(median(t.remine.lat), median(u.remine.lat)))
	r.set("stream.append_p50_us", quantile(t.plainLat, 0.5)*1e6)
	r.set("stream.append_p99_us", quantile(t.plainLat, 0.99)*1e6)
	r.set("stream.remines", float64(t.remines))
	r.set("stream.skipped_mines", float64(t.skipped))
	t.remine.layers.report(r)
	r.logf("untraced: %d appends, %d re-mines, median %.4fs; traced: %d re-mines, median %.4fs",
		u.appends, len(u.remine.lat), median(u.remine.lat), len(t.remine.lat), median(t.remine.lat))

	// Correctness, outside the timed phases: both phases replayed the same
	// rows from the same window, so their re-mines must agree; and the
	// monitor's final patterns must be what a fresh mine of its window
	// finds.
	checkSame(r, "traced re-mines against untraced ones", u.remine.digests, t.remine.digests)
	for _, mon := range []*stream.Monitor{m, tm} {
		fresh := core.Mine(mon.CurrentData(), cfg.Mining)
		checkSame(r, "monitor patterns against a fresh core.Mine of its window",
			[]string{digest(fresh.Contrasts)}, []string{digest(mon.Current())})
	}
	return nil
}

// streamPhase is what one stream phase observed.
type streamPhase struct {
	remine   phaseResult // latency, digest and layers of each re-mine append
	plainLat []float64   // seconds per append that triggered no re-mine
	appends  int
	errors   int
	remines  int
	skipped  int
}

// streamLoop appends rows after the first window from a single producer in
// a closed loop, wrapping around the input, for budget (at least minOps
// re-mines, at most maxOps when maxOps > 0). Traced, the monitor's recorder
// and tracer are read after every re-mine; the layer metrics are those of
// the first minOps re-mines.
func streamLoop(r *runner, in streamInput, m *stream.Monitor, cfg stream.Config, budget time.Duration, maxOps int, traced bool) streamPhase {
	sp := streamPhase{remine: phaseResult{layers: layerSamples{}}}
	rec, tr := cfg.Mining.Metrics, cfg.Mining.Trace
	var prev work
	if traced {
		tr.Drain() // the fill's events
		snap := rec.Snapshot()
		prev = workOf(&snap, nil)
	}
	mines0, skipped0 := m.Mines(), m.SkippedMines()
	deadline := time.Now().Add(budget)
	var ms runtime.MemStats
	for i := cfg.WindowSize; ; i++ {
		n := len(sp.remine.lat)
		if (n >= minOps && !time.Now().Before(deadline)) || (maxOps > 0 && n >= maxOps) {
			break
		}
		row := i % in.rows()
		due := (i+1)%cfg.MineEvery == 0 // this append completes a cadence period
		if traced && due {
			runtime.ReadMemStats(&ms)
		}
		base := time.Now().Add(-time.Duration(tr.Now()))
		before := m.Mines() + m.SkippedMines()
		t0 := time.Now()
		_, err := m.Append(in.cont[row], in.cat[row], in.group[row])
		t1 := time.Now()
		sp.appends++
		if err != nil {
			sp.errors++
			r.logf("append %d: %v", i, err)
		}
		if m.Mines()+m.SkippedMines() == before {
			sp.plainLat = append(sp.plainLat, t1.Sub(t0).Seconds())
			continue
		}
		sp.remine.lat = append(sp.remine.lat, t1.Sub(t0).Seconds())
		sp.remine.digests = append(sp.remine.digests, digest(m.Current()))
		if !traced {
			continue
		}
		alloc := ms.TotalAlloc
		runtime.ReadMemStats(&ms)
		segment := tr.Drain()
		snap := rec.Snapshot()
		cur := workOf(&snap, nil)
		w := cur.minus(prev)
		spans := workOf(nil, segment)
		w["sdad_ns"] = spans["sdad_ns"]
		prev = cur
		lm := w.layerMetrics(spans["remine_ns"])
		lm["core.alloc_bytes"] = float64(ms.TotalAlloc - alloc)
		lm["stream.node_evals_per_remine"] = w["node_evals"]
		lm["stream.gate_stable_ratio"] = ratio(w["gate_stable"], w["gate_stable"]+w["gate_dirty"])
		if len(sp.remine.lat) <= minOps {
			// The first re-mines after the window fill: the same windows in
			// every run of a seed, so the work counts repeat exactly.
			sp.remine.layers.add(lm)
		}
		op := r.nextOp()
		root := r.spans.add("stream.Monitor.Append", op, 0, t0, t1)
		r.spans.addTraceSpans(segment, op, root, base)
	}
	sp.remines = m.Mines() - mines0
	sp.skipped = m.SkippedMines() - skipped0
	return sp
}
