package engine_test

// Golden bit-equality battery at the engine layer: for every registered
// algorithm, the engine-level knobs that must be result-neutral — counting
// engine, worker count, instrumentation — are flipped pairwise over seeded
// adversarial datasets and the contrast lists are compared bit-for-bit
// (Float64bits on every score and statistic, exact counts, identical
// order). This is the contract Config.CanonicalKey relies on when it
// excludes those fields: two configs mapping to the same key really do
// produce byte-identical results.

import (
	"errors"
	"math"
	"testing"

	"sdadcs/internal/core"
	"sdadcs/internal/engine"
	"sdadcs/internal/metrics"
	"sdadcs/internal/oracle"
	"sdadcs/internal/pattern"
	"sdadcs/internal/trace"
)

// sameContrasts demands positional bitwise equality of two contrast lists.
func sameContrasts(t *testing.T, label string, got, want []pattern.Contrast) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d contrasts, want %d", label, len(got), len(want))
		return
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Set.Key() != w.Set.Key() {
			t.Errorf("%s: contrast %d key %q, want %q", label, i, g.Set.Key(), w.Set.Key())
			continue
		}
		if math.Float64bits(g.Score) != math.Float64bits(w.Score) ||
			math.Float64bits(g.ChiSq) != math.Float64bits(w.ChiSq) ||
			math.Float64bits(g.P) != math.Float64bits(w.P) {
			t.Errorf("%s: contrast %d (%s) score/chisq/p bits differ: (%v,%v,%v) vs (%v,%v,%v)",
				label, i, g.Set.Key(), g.Score, g.ChiSq, g.P, w.Score, w.ChiSq, w.P)
		}
		for gi := range g.Supports.Count {
			if g.Supports.Count[gi] != w.Supports.Count[gi] {
				t.Errorf("%s: contrast %d (%s) count[g%d] = %d, want %d",
					label, i, g.Set.Key(), gi, g.Supports.Count[gi], w.Supports.Count[gi])
			}
		}
	}
}

// TestGoldenEngineNeutralKnobs flips each result-neutral knob against the
// baseline run for every algorithm over a spread of seeds.
func TestGoldenEngineNeutralKnobs(t *testing.T) {
	// MVD's default 100-row bins would collapse the small oracle datasets
	// to one bin; BinSize 10 makes its pipeline do real work.
	base := engine.Config{BinSize: 10}
	for _, alg := range engine.Algorithms() {
		alg := alg
		t.Run(alg, func(t *testing.T) {
			for seed := int64(0); seed < 12; seed++ {
				d := oracle.Generate(seed)
				cfg := base
				cfg.Algorithm = alg
				want, err := engine.Mine(d, cfg)
				if err != nil {
					t.Fatalf("seed %d: baseline run: %v", seed, err)
				}

				variants := []struct {
					label string
					mut   func(*engine.Config)
				}{
					{"workers-8", func(c *engine.Config) { c.Workers = 8 }},
					{"metrics-and-trace-on", func(c *engine.Config) {
						c.Metrics = metrics.New()
						c.Trace = trace.New(1 << 16)
					}},
				}
				for _, v := range variants {
					vcfg := cfg
					v.mut(&vcfg)
					got, err := engine.Mine(d, vcfg)
					if err != nil {
						t.Fatalf("seed %d: %s: %v", seed, v.label, err)
					}
					sameContrasts(t, alg+"/"+v.label, got.Contrasts, want.Contrasts)
				}
				if t.Failed() {
					t.Fatalf("stopping at first divergent seed %d", seed)
				}
			}
		})
	}
}

// TestGoldenEngineInstrumentation verifies that the instrumentation the
// neutral-knob battery proved result-neutral actually lands in the Result:
// every algorithm must fill Metrics and Trace when sinks are attached, and
// leave them nil otherwise.
func TestGoldenEngineInstrumentation(t *testing.T) {
	d := oracle.Generate(3)
	for _, alg := range engine.Algorithms() {
		bare, err := engine.Mine(d, engine.Config{Algorithm: alg, BinSize: 10})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if bare.Metrics != nil || bare.Trace != nil {
			t.Errorf("%s: instrumentation snapshots present without sinks", alg)
		}
		if bare.Algorithm != alg {
			t.Errorf("%s: Result.Algorithm = %q", alg, bare.Algorithm)
		}
		res, err := engine.Mine(d, engine.Config{
			Algorithm: alg, BinSize: 10,
			Metrics: metrics.New(), Trace: trace.New(1 << 16),
		})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.Metrics == nil {
			t.Errorf("%s: no metrics snapshot", alg)
		}
		if res.Trace == nil {
			t.Errorf("%s: no trace snapshot", alg)
		} else if len(res.Trace.Events) == 0 {
			t.Errorf("%s: trace snapshot has no events", alg)
		}
	}
}

// TestGoldenCanonicalKeys pins the canonical-key contract: result-neutral
// fields are excluded, defaults resolve to the same key as explicit
// values, and every result-affecting knob separates keys.
func TestGoldenCanonicalKeys(t *testing.T) {
	for _, alg := range engine.Algorithms() {
		zero := engine.Config{Algorithm: alg}
		neutral := engine.Config{
			Algorithm: alg,
			Workers:   8,
			Metrics:   metrics.New(),
			Trace:     trace.New(1 << 10),
		}
		if zero.CanonicalKey() != neutral.CanonicalKey() {
			t.Errorf("%s: neutral knobs changed the canonical key:\n  %s\n  %s",
				alg, zero.CanonicalKey(), neutral.CanonicalKey())
		}
		explicit := engine.Config{Algorithm: alg, Alpha: 0.05, TopK: 100}
		if zero.CanonicalKey() != explicit.CanonicalKey() {
			t.Errorf("%s: explicit defaults changed the canonical key:\n  %s\n  %s",
				alg, zero.CanonicalKey(), explicit.CanonicalKey())
		}
		if zero.CanonicalHash() != explicit.CanonicalHash() {
			t.Errorf("%s: canonical hashes differ for equivalent configs", alg)
		}
		altered := engine.Config{Algorithm: alg, Alpha: 0.01}
		if alg != "subgroup" { // subgroup's beam is WRACC-driven; Alpha is unused
			if zero.CanonicalKey() == altered.CanonicalKey() {
				t.Errorf("%s: Alpha change did not separate canonical keys", alg)
			}
		}
		otherMeasure := engine.Config{Algorithm: alg, Measure: pattern.GrowthRateMeasure}
		if zero.CanonicalKey() == otherMeasure.CanonicalKey() {
			t.Errorf("%s: Measure change did not separate canonical keys", alg)
		}
	}
	// Algorithm always separates keys.
	seen := map[string]string{}
	for _, alg := range engine.Algorithms() {
		key := engine.Config{Algorithm: alg}.CanonicalKey()
		if prev, dup := seen[key]; dup {
			t.Errorf("algorithms %s and %s share canonical key %q", prev, alg, key)
		}
		seen[key] = alg
	}
}

// TestGoldenEngineValidate pins the typed validation surface.
func TestGoldenEngineValidate(t *testing.T) {
	_, err := engine.Mine(oracle.Generate(0), engine.Config{Algorithm: "nope"})
	if err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if !fieldErrorOn(err, "Algorithm") {
		t.Errorf("unknown algorithm error = %v, want *core.FieldError on Algorithm", err)
	}

	bad := engine.Config{Algorithm: "subgroup", BeamWidth: -1, Bins: -2, MinQuality: math.NaN()}
	err = bad.Validate()
	if err == nil {
		t.Fatal("invalid subgroup config accepted")
	}
	for _, field := range []string{"BeamWidth", "Bins", "MinQuality"} {
		if !fieldErrorOn(err, field) {
			t.Errorf("missing FieldError on %s in %v", field, err)
		}
	}
}

func fieldErrorOn(err error, field string) bool {
	var check func(error) bool
	check = func(e error) bool {
		var f *core.FieldError
		if errors.As(e, &f) && f.Field == field {
			return true
		}
		if u, ok := e.(interface{ Unwrap() []error }); ok {
			for _, inner := range u.Unwrap() {
				if check(inner) {
					return true
				}
			}
		}
		return false
	}
	return check(err)
}
