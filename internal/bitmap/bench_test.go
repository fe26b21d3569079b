package bitmap

import (
	"math/rand"
	"strconv"
	"testing"

	"sdadcs/internal/dataset"
)

func benchData(n int) *dataset.Dataset {
	rng := rand.New(rand.NewSource(7))
	a := make([]string, n)
	b := make([]string, n)
	g := make([]string, n)
	for i := range a {
		a[i] = "a" + strconv.Itoa(rng.Intn(5))
		b[i] = "b" + strconv.Itoa(rng.Intn(5))
		g[i] = "g" + strconv.Itoa(i%2)
	}
	return dataset.NewBuilder("bench").
		AddCategorical("a", a).
		AddCategorical("b", b).
		SetGroups(g).
		MustBuild()
}

// BenchmarkCoverCountBitmap measures the bitmap path: intersect two value
// bitmaps and popcount per group.
func BenchmarkCoverCountBitmap(b *testing.B) {
	d := benchData(100000)
	ix := NewIndex(d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cover := ix.Value(0, 1).And(ix.Value(1, 2))
		ix.GroupCounts(cover)
	}
}

func BenchmarkIndexBuild(b *testing.B) {
	d := benchData(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewIndex(d)
	}
}

func BenchmarkAndCount(b *testing.B) {
	s1 := New(1 << 20)
	s2 := New(1 << 20)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1<<18; i++ {
		s1.Add(rng.Intn(1 << 20))
		s2.Add(rng.Intn(1 << 20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s1.AndCount(s2)
	}
}
