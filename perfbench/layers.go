package main

import (
	"fmt"

	"sdadcs/internal/metrics"
	"sdadcs/internal/trace"
)

// work is the additive part of one mine's instrumentation: the counters
// and summed times the program exposes through metrics.Recorder and the
// SDAD-CS spans of its tracer. Additive, so a cumulative recorder (the
// stream monitor keeps one for its lifetime) yields per-re-mine values by
// subtraction.
type work map[string]float64

// workOf reads the additive counters of a snapshot and the SDAD-CS busy
// time of a trace.
func workOf(s *metrics.Snapshot, tr *trace.Trace) work {
	w := work{}
	if s != nil {
		w["and_ops"] = float64(s.BitmapAndOps)
		w["popcounts"] = float64(s.BitmapPopcounts)
		w["lazy_rows"] = float64(s.BitmapLazyRows)
		w["arena_fresh"] = float64(s.ArenaFresh)
		w["arena_reused"] = float64(s.ArenaReused)
		w["threshold_updates"] = float64(s.ThresholdUpdates)
		w["sdad_calls"] = float64(s.SDADCalls)
		w["splits"] = float64(s.Splits)
		w["boxes"] = float64(s.BoxesExplored)
		w["merge_attempts"] = float64(s.MergeAttempts)
		w["merge_ops"] = float64(s.MergeOps)
		w["node_evals"] = float64(s.NodeEval.Count)
		w["gate_stable"] = float64(s.GateStableNodes)
		w["gate_dirty"] = float64(s.GateDirtyNodes)
		for _, rule := range []metrics.PruneRule{
			metrics.PruneLookupTable, metrics.PruneRedundancyCLT, metrics.PruneMinDeviation,
			metrics.PruneOptimisticEstimate, metrics.PrunePureSpace,
		} {
			w["prune."+rule.String()] = float64(s.PruneHits(rule))
		}
		for _, lv := range s.Levels {
			w["nodes"] += float64(lv.Nodes)
			w["survivors"] += float64(lv.Survivors)
			w["eval_ns"] += float64(lv.EvalNanos)
			w["capacity_ns"] += float64(lv.WallNanos * max(lv.Workers, 1))
			w["levels_ns"] += float64(lv.WallNanos)
			if lv.Level <= 4 {
				w[fmt.Sprintf("level%d_ns", lv.Level)] += float64(lv.WallNanos)
			}
		}
	}
	if tr != nil {
		for i := range tr.Events {
			switch tr.Events[i].Kind {
			case trace.KindSDAD:
				w["sdad_ns"] += tr.Events[i].V3
			case trace.KindRemine:
				w["remine_ns"] += tr.Events[i].V3
			}
		}
	}
	return w
}

// minus returns w − base, key by key.
func (w work) minus(base work) work {
	out := work{}
	for k, v := range w {
		out[k] = v - base[k]
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer metrics of one mine from its work;
// mineNS is the mine's wall time, when known, for core.mine_self_s.
func (w work) layerMetrics(mineNS float64) map[string]float64 {
	m := map[string]float64{
		"bitmap.and_ops":                 w["and_ops"],
		"bitmap.popcounts":               w["popcounts"],
		"bitmap.lazy_rows":               w["lazy_rows"],
		"bitmap.arena_recycle_ratio":     ratio(w["arena_reused"], w["arena_fresh"]+w["arena_reused"]),
		"core.nodes":                     w["nodes"],
		"core.survivor_ratio":            ratio(w["survivors"], w["nodes"]),
		"core.search_busy_s":             (w["eval_ns"] - w["sdad_ns"]) / 1e9,
		"core.parallel_efficiency":       ratio(w["eval_ns"], w["capacity_ns"]),
		"core.prune.lookup_table":        w["prune.lookup_table"],
		"core.prune.redundancy_clt":      w["prune.redundancy_clt"],
		"core.prune.min_deviation":       w["prune.min_deviation"],
		"core.prune.optimistic_estimate": w["prune.optimistic_estimate"],
		"core.prune.pure_space":          w["prune.pure_space"],
		"topk.threshold_updates":         w["threshold_updates"],
		"sdadcs.busy_s":                  w["sdad_ns"] / 1e9,
		"sdadcs.calls":                   w["sdad_calls"],
		"sdadcs.splits":                  w["splits"],
		"sdadcs.boxes":                   w["boxes"],
		"sdadcs.merge_attempts":          w["merge_attempts"],
		"sdadcs.merge_ops":               w["merge_ops"],
	}
	if mineNS > 0 {
		m["core.mine_self_s"] = (mineNS - w["levels_ns"]) / 1e9
	}
	for l := 1; l <= 4; l++ {
		m[fmt.Sprintf("core.level%d_s", l)] = w[fmt.Sprintf("level%d_ns", l)] / 1e9
	}
	return m
}

// layerSamples collects per-mine layer metrics and reports each metric's
// median over the mines.
type layerSamples map[string][]float64

func (ls layerSamples) add(m map[string]float64) {
	for k, v := range m {
		ls[k] = append(ls[k], v)
	}
}

func (ls layerSamples) report(r *runner) {
	for k, vs := range ls {
		r.set(k, median(vs))
	}
}
