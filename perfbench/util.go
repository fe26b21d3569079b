package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
	"syscall"

	"sdadcs/internal/dataset"
	"sdadcs/internal/pattern"
)

// digest is a result fingerprint: the contrasts in canonical key order,
// each with its per-group counts and the exact bits of Score, ChiSq and P.
// Two results with equal digests are the same result.
func digest(cs []pattern.Contrast) string {
	keys := make([]string, len(cs))
	order := make([]int, len(cs))
	for i := range cs {
		keys[i], order[i] = cs[i].Set.Key(), i
	}
	sort.Slice(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
	h := sha256.New()
	var b [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	word(uint64(len(cs)))
	for _, i := range order {
		c := &cs[i]
		h.Write([]byte(keys[i]))
		h.Write([]byte{0})
		word(uint64(len(c.Supports.Count)))
		for _, n := range c.Supports.Count {
			word(uint64(n))
		}
		word(math.Float64bits(c.Score))
		word(math.Float64bits(c.ChiSq))
		word(math.Float64bits(c.P))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// bytesDigest fingerprints an opaque output such as a /result body.
func bytesDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkSame counts one correctness check: got[i] must equal want[i] over
// their common prefix, which must not be empty. A mismatch is a result
// that differs where it must be identical.
func checkSame(r *runner, what string, want, got []string) {
	n := min(len(want), len(got))
	bad := 0
	for i := 0; i < n; i++ {
		if want[i] != got[i] {
			bad++
		}
	}
	r.check(n > 0 && bad == 0, "%s: %d of %d results differ", what, bad, n)
}

// fill returns n copies of s.
func fill(s string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = s
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for no samples). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// maxRSSMB is the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// csvBytes renders a generated dataset as the CSV the program parses.
func csvBytes(d *dataset.Dataset) ([]byte, error) {
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, d, "group"); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// A run sets its workload up at least minSetups times, then again until
// setupBudget seconds are spent, at most maxSetups times; setup_s is the
// median.
const (
	minSetups   = 5
	maxSetups   = 25
	setupBudget = 2.0
)

// moreSetups reports whether another set-up should run after done ones
// that took secs.
func moreSetups(done int, secs []float64) bool {
	return done < minSetups || (done < maxSetups && sum(secs) < setupBudget)
}
