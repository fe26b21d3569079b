package serve

import (
	"net/http"
	"testing"
	"time"
)

// TestIndexBuiltOncePerDatasetHash: repeated jobs against the same dataset
// hash — forced to actually re-mine by varying top_k, which is part of the
// result-cache key — share one cached bitmap index. Exactly one build,
// counted both on the dataset handle and in the server metrics.
func TestIndexBuiltOncePerDatasetHash(t *testing.T) {
	s, c := newTestServer(t, Options{Workers: 2})
	dsID := c.register(smallCSV)

	for i, topk := range []int{5, 7, 9, 11} {
		st, code, body := c.submit(map[string]any{
			"dataset_id": dsID,
			"config":     map[string]any{"top_k": topk},
		})
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, code, body)
		}
		if st := c.waitState(st.ID, JobDone, 10*time.Second); st.State != JobDone {
			t.Fatalf("job %d ended %s: %s", i, st.State, st.Error)
		}
	}

	ds, _, ok := s.Registry().Get(dsID)
	if !ok {
		t.Fatal("dataset vanished from the registry")
	}
	if got := ds.Index().Builds(); got != 1 {
		t.Fatalf("dataset index builds = %d across 4 jobs, want 1", got)
	}
	m := c.metrics()
	if m.MineExecutions < 4 {
		t.Fatalf("mine executions = %d, want 4 (cache was supposed to miss)", m.MineExecutions)
	}
	if m.IndexBuilds != 1 {
		t.Fatalf("metrics index_builds = %d, want 1", m.IndexBuilds)
	}
	if m.IndexCached != 1 {
		t.Fatalf("metrics index_cached = %d, want 1", m.IndexCached)
	}
	if m.IndexEvictions != 0 {
		t.Fatalf("metrics index_evictions = %d, want 0", m.IndexEvictions)
	}

	// Re-registering the same bytes hits the same content hash and so the
	// same cached index: still one build ever.
	if id2 := c.register(smallCSV); id2 != dsID {
		t.Fatalf("re-registration changed the content hash: %s vs %s", id2, dsID)
	}
	st, _, _ := c.submit(map[string]any{
		"dataset_id": dsID,
		"config":     map[string]any{"top_k": 13},
	})
	c.waitState(st.ID, JobDone, 10*time.Second)
	if got := ds.Index().Builds(); got != 1 {
		t.Fatalf("index rebuilt after re-registration: builds = %d", got)
	}
}

// TestEvictionDropsIndex: evicting a dataset from the registry drops its
// cached bitmap index and counts the drop, so the row budget bounds index
// memory too.
func TestEvictionDropsIndex(t *testing.T) {
	reg := NewRegistry(60)

	a, err := reg.Register("a", csvRows(50, "a"), "g", nil)
	if err != nil {
		t.Fatal(err)
	}
	dsA, _, ok := reg.Get(a.ID)
	if !ok {
		t.Fatal("dataset a missing")
	}
	dsA.Index().LoadOrBuild(func() any { return "index-a" })
	if cached, builds, ev := reg.IndexStats(); cached != 1 || builds != 1 || ev != 0 {
		t.Fatalf("before eviction: cached=%d builds=%d evictions=%d", cached, builds, ev)
	}

	// Registering b (50 rows) blows the 60-row budget and evicts a.
	if _, err := reg.Register("b", csvRows(50, "b"), "g", nil); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := reg.Get(a.ID); ok {
		t.Fatal("dataset a survived eviction")
	}
	if dsA.Index().Loaded() {
		t.Fatal("evicted dataset still holds its bitmap index")
	}
	if cached, builds, ev := reg.IndexStats(); cached != 0 || builds != 1 || ev != 1 {
		t.Fatalf("after eviction: cached=%d builds=%d evictions=%d, want 0/1/1", cached, builds, ev)
	}
	if _, _, evictions := reg.Stats(); evictions != 1 {
		t.Fatalf("registry evictions = %d, want 1", evictions)
	}
}
