package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"sdadcs/internal/dataset"
	"sdadcs/internal/pattern"
)

// runTiny runs one workload on tiny inputs and returns its exit code and
// decoded result line.
func runTiny(t *testing.T, wl string, traced bool, seed string) (int, result) {
	t.Helper()
	tr := "0"
	if traced {
		tr = "1"
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", wl, "--seed", seed, "--seconds", "1", "--trace", tr,
		"--tiny", "--workdir", t.TempDir()}, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace=%s: no result line (exit %d): %v\nstderr:\n%s", wl, tr, code, err, stderr.String())
	}
	if code != 0 {
		t.Logf("stderr:\n%s", stderr.String())
	}
	return code, res
}

// TestTinyWorkloads runs every workload untraced and traced on tiny inputs:
// each must pass its correctness checks and emit exactly its metric table,
// every metric with the table's unit, end-to-end metrics never 0.
func TestTinyWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			code, res := runTiny(t, w.name, traced, "7")
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: exit %d, correct %v, attempted %d, failed %d",
					w.name, traced, code, res.Correct, res.Attempted, res.Failed)
			}
			table := endToEnd
			if traced {
				table = perLayer
			}
			if len(res.Metrics) != len(table) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(table))
			}
			for _, m := range table {
				got, ok := res.Metrics[m.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.name, traced, m.name)
				case got.Unit != m.unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", w.name, traced, m.name, got.Unit, m.unit)
				case !traced && !(got.Value > 0):
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, m.name, got.Value)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", w.name, traced, m.name, got.Value)
				}
			}
		}
	}
}

// TestCountsRepeat pins the acceptance rule that work counters repeat
// exactly on a fixed seed, at two workers too.
func TestCountsRepeat(t *testing.T) {
	for _, w := range workloads {
		_, a := runTiny(t, w.name, true, "11")
		_, b := runTiny(t, w.name, true, "11")
		for _, m := range perLayer {
			if m.unit != "count" || m.name == "stream.remines" {
				continue // stream.remines counts what fits in the run's time
			}
			if a.Metrics[m.name].Value != b.Metrics[m.name].Value {
				t.Errorf("%s: %s = %v then %v", w.name, m.name, a.Metrics[m.name].Value, b.Metrics[m.name].Value)
			}
		}
	}
}

// TestDigestDetectsCorruption: changing any part of one contrast changes
// the digest, and a run whose digests disagree is reported incorrect and
// exits non-zero.
func TestDigestDetectsCorruption(t *testing.T) {
	d := dataset.NewBuilder("t").
		AddCategorical("a", []string{"x", "y", "x", "y"}).
		SetGroups([]string{"g", "g", "h", "h"}).MustBuild()
	c := pattern.Contrast{
		Set:      pattern.NewItemset(pattern.CatItem(0, 0)),
		Supports: pattern.Supports{Count: []int{1, 1}, Size: d.GroupSizes()},
		Score:    0.5, ChiSq: 1.25, P: 0.25,
	}
	base := digest([]pattern.Contrast{c})
	corrupt := []func(*pattern.Contrast){
		func(c *pattern.Contrast) { c.Set = pattern.NewItemset(pattern.CatItem(0, 1)) },
		func(c *pattern.Contrast) { c.Supports.Count = []int{1, 2} },
		func(c *pattern.Contrast) { c.Score = math.Nextafter(c.Score, 1) },
		func(c *pattern.Contrast) { c.ChiSq = math.Nextafter(c.ChiSq, 2) },
		func(c *pattern.Contrast) { c.P = math.Nextafter(c.P, 1) },
	}
	for i, f := range corrupt {
		cc := c
		cc.Supports.Count = append([]int(nil), c.Supports.Count...)
		f(&cc)
		if digest([]pattern.Contrast{cc}) == base {
			t.Errorf("corruption %d left the digest unchanged", i)
		}
	}

	var log bytes.Buffer
	r := newRunner(options{workload: wlMineCat, log: &log})
	for _, m := range endToEnd {
		r.set(m.name, 1)
	}
	bad := []string{base, base, "0" + base[1:]}
	checkSame(r, "mines", fill(base, len(bad)), bad)
	res, err := r.result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 {
		t.Fatalf("corrupted digest: correct %v, failed %d; want a failed check", res.Correct, res.Failed)
	}
	if !strings.Contains(log.String(), "FAIL") {
		t.Errorf("failed check not logged: %q", log.String())
	}
}

// TestBenchmarkJSONMatchesTable keeps BENCHMARK.json and the metric and
// workload tables in step.
func TestBenchmarkJSONMatchesTable(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []jm                         `json:"end_to_end"`
		PerLayer  []jm                         `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names, whys []string
	for _, w := range workloads {
		names = append(names, w.name)
		whys = append(whys, w.why)
	}
	var gotNames, gotWhys []string
	for _, w := range b.Workloads {
		gotNames = append(gotNames, w.Name)
		gotWhys = append(gotWhys, w.Why)
	}
	if !reflect.DeepEqual(gotNames, names) || !reflect.DeepEqual(gotWhys, whys) {
		t.Errorf("workloads: BENCHMARK.json %q, table %q", gotNames, names)
	}
	compare := func(kind string, got []jm, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the table", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, table %s %s %s", kind, i, g, m.name, m.unit, m.better)
			}
			if kind == "end_to_end" && (g.Bound == nil || *g.Bound != m.bound) {
				t.Errorf("%s: bound %v, table %v", m.name, g.Bound, m.bound)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, endToEnd)
	compare("per_layer", b.PerLayer, perLayer)
}
