package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sdadcs/internal/engine"
	"sdadcs/internal/trace"
)

// heavyCSV builds a dataset whose mine takes long enough (hundreds of ms,
// seconds under -race) that tests can observe the running state and cancel
// mid-flight. All-continuous attributes keep the SDAD-CS recursion busy.
func heavyCSV(rows, attrs int) []byte {
	rng := rand.New(rand.NewSource(42))
	var b strings.Builder
	for a := 0; a < attrs; a++ {
		fmt.Fprintf(&b, "c%d,", a)
	}
	b.WriteString("g\n")
	for i := 0; i < rows; i++ {
		g := "pass"
		if rng.Float64() < 0.5 {
			g = "fail"
		}
		for a := 0; a < attrs; a++ {
			fmt.Fprintf(&b, "%.6f,", rng.NormFloat64()*10+float64(a))
		}
		b.WriteString(g + "\n")
	}
	return []byte(b.String())
}

// client wraps an httptest server with JSON helpers.
type client struct {
	t    *testing.T
	base string
}

func newTestServer(t *testing.T, opts Options) (*Server, *client) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close(2 * time.Second)
	})
	return s, &client{t: t, base: ts.URL}
}

func (c *client) do(method, path string, body any) (int, []byte) {
	c.t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			c.t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	return resp.StatusCode, out
}

func (c *client) register(csv []byte) string {
	c.t.Helper()
	code, body := c.do("POST", "/v1/datasets", map[string]any{
		"name": "t", "group_column": "g", "csv": string(csv),
	})
	if code != http.StatusCreated {
		c.t.Fatalf("register: %d %s", code, body)
	}
	var info DatasetInfo
	if err := json.Unmarshal(body, &info); err != nil {
		c.t.Fatal(err)
	}
	return info.ID
}

func (c *client) submit(req map[string]any) (JobStatus, int, []byte) {
	c.t.Helper()
	code, body := c.do("POST", "/v1/jobs", req)
	var st JobStatus
	if code == http.StatusAccepted {
		if err := json.Unmarshal(body, &st); err != nil {
			c.t.Fatal(err)
		}
	}
	return st, code, body
}

func (c *client) status(id string) JobStatus {
	c.t.Helper()
	code, body := c.do("GET", "/v1/jobs/"+id, nil)
	if code != http.StatusOK {
		c.t.Fatalf("status %s: %d %s", id, code, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		c.t.Fatal(err)
	}
	return st
}

// waitState polls until the job reaches want (or any terminal state) and
// returns the final status.
func (c *client) waitState(id string, want JobState, timeout time.Duration) JobStatus {
	c.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := c.status(id)
		if st.State == want || st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("job %s stuck in %s waiting for %s", id, st.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (c *client) metrics() ServerMetrics {
	c.t.Helper()
	code, body := c.do("GET", "/v1/metrics", nil)
	if code != http.StatusOK {
		c.t.Fatalf("metrics: %d %s", code, body)
	}
	var m ServerMetrics
	if err := json.Unmarshal(body, &m); err != nil {
		c.t.Fatal(err)
	}
	return m
}

// smallCSV is a fast-to-mine, perfectly separable dataset: large enough
// (40 rows) that the chi-square expected-count prune does not discard the
// obvious contrasts.
var smallCSV = func() []byte {
	var b strings.Builder
	b.WriteString("x,tool,g\n")
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&b, "%.1f,a,pass\n", 1.0+float64(i)*0.1)
		fmt.Fprintf(&b, "%.1f,b,fail\n", 8.0+float64(i)*0.1)
	}
	return []byte(b.String())
}()

// TestEndToEnd walks the whole API: register → submit → poll → result →
// trace → explain, plus the dataset listing endpoints.
func TestEndToEnd(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 2})
	dsID := c.register(smallCSV)

	// Dataset surface.
	if code, body := c.do("GET", "/v1/datasets/"+dsID, nil); code != http.StatusOK {
		t.Fatalf("get dataset: %d %s", code, body)
	}
	if code, body := c.do("GET", "/v1/datasets", nil); code != http.StatusOK || !bytes.Contains(body, []byte(dsID)) {
		t.Fatalf("list datasets: %d %s", code, body)
	}
	if code, _ := c.do("GET", "/v1/datasets/ds_nope", nil); code != http.StatusNotFound {
		t.Fatalf("unknown dataset: %d", code)
	}

	// Submit and wait.
	st, code, body := c.submit(map[string]any{"dataset_id": dsID})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	if st.State != JobPending && st.State != JobRunning && st.State != JobDone {
		t.Fatalf("fresh job state = %s", st.State)
	}
	final := c.waitState(st.ID, JobDone, 10*time.Second)
	if final.State != JobDone {
		t.Fatalf("job ended %s (%s)", final.State, final.Error)
	}
	if final.Contrasts == 0 {
		t.Fatal("mine found no contrasts on a perfectly separable dataset")
	}
	if final.StartedAt == nil || final.FinishedAt == nil {
		t.Fatal("missing timestamps on a done job")
	}

	// Result: a JSON array of contrasts carrying canonical keys.
	code, res := c.do("GET", "/v1/jobs/"+st.ID+"/result", nil)
	if code != http.StatusOK {
		t.Fatalf("result: %d %s", code, res)
	}
	var contrasts []struct {
		Rank  int    `json:"rank"`
		Key   string `json:"key"`
		Items []struct {
			Attribute string `json:"attribute"`
			Kind      string `json:"kind"`
		} `json:"items"`
		Groups []struct {
			Group   string  `json:"group"`
			Support float64 `json:"support"`
		} `json:"groups"`
	}
	if err := json.Unmarshal(res, &contrasts); err != nil {
		t.Fatalf("result not a contrast array: %v\n%s", err, res)
	}
	if len(contrasts) != final.Contrasts {
		t.Fatalf("result has %d contrasts, status says %d", len(contrasts), final.Contrasts)
	}
	if contrasts[0].Key == "" || len(contrasts[0].Groups) != 2 {
		t.Fatalf("malformed contrast: %+v", contrasts[0])
	}

	// Trace: decodable JSONL with at least one event.
	req, _ := http.NewRequest("GET", c.base+"/v1/jobs/"+st.ID+"/trace", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Fatalf("trace content type = %q", ct)
	}
	tr, err := trace.ReadJSONL(resp.Body)
	if err != nil {
		t.Fatalf("decoding trace JSONL: %v", err)
	}
	if len(tr.Events) == 0 {
		t.Fatal("empty decision trace")
	}

	// Explain: round-trip the first result key into pattern provenance.
	code, body = c.do("GET", "/v1/jobs/"+st.ID+"/explain?key="+contrasts[0].Key, nil)
	if code != http.StatusOK {
		t.Fatalf("explain: %d %s", code, body)
	}
	var ex struct {
		Key     string `json:"key"`
		Verdict string `json:"verdict"`
		Events  int    `json:"events"`
		Text    string `json:"text"`
	}
	if err := json.Unmarshal(body, &ex); err != nil {
		t.Fatal(err)
	}
	if ex.Key != contrasts[0].Key || ex.Verdict == "" || ex.Text == "" {
		t.Fatalf("thin explanation: %+v", ex)
	}

	// Job listing includes it.
	if code, body := c.do("GET", "/v1/jobs", nil); code != http.StatusOK || !bytes.Contains(body, []byte(st.ID)) {
		t.Fatalf("list jobs: %d %s", code, body)
	}
	if code, _ := c.do("GET", "/v1/jobs/job_nope", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job: %d", code)
	}
}

// TestDedupSingleflight pins the issue's acceptance bar: ≥8 simultaneous
// identical submissions cost exactly one Mine execution and all callers get
// byte-identical result bodies.
func TestDedupSingleflight(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 1})
	heavyID := c.register(heavyCSV(2500, 8))
	smallID := c.register(smallCSV)

	// Occupy the single worker with a long mine so the identical batch
	// below deterministically attaches to one in-flight leader.
	blocker, code, body := c.submit(map[string]any{
		"dataset_id": heavyID,
		"config":     map[string]any{"max_depth": 4, "delta": 0.01},
	})
	if code != http.StatusAccepted {
		t.Fatalf("blocker: %d %s", code, body)
	}
	if st := c.waitState(blocker.ID, JobRunning, 10*time.Second); st.State != JobRunning {
		t.Fatalf("blocker reached %s before the batch was submitted", st.State)
	}
	base := c.metrics()

	const n = 8
	ids := make([]string, n)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, code, body := c.submit(map[string]any{"dataset_id": smallID})
			if code != http.StatusAccepted {
				errs <- fmt.Errorf("submit %d: %d %s", i, code, body)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Free the worker: cancel the blocker; its mine must abort promptly
	// through the context checks in the miner and the SDAD-CS recursion.
	start := time.Now()
	if code, body := c.do("DELETE", "/v1/jobs/"+blocker.ID, nil); code != http.StatusOK {
		t.Fatalf("cancel blocker: %d %s", code, body)
	}
	bst := c.waitState(blocker.ID, JobCanceled, 5*time.Second)
	if bst.State != JobCanceled {
		t.Fatalf("canceled blocker ended %s", bst.State)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("cancellation took %s; want prompt interruption", d)
	}

	// Everyone in the batch finishes done with the same bytes.
	var bodies [][]byte
	deduped := 0
	for _, id := range ids {
		st := c.waitState(id, JobDone, 10*time.Second)
		if st.State != JobDone {
			t.Fatalf("batch job %s ended %s (%s)", id, st.State, st.Error)
		}
		if st.Deduped {
			deduped++
		}
		code, res := c.do("GET", "/v1/jobs/"+id+"/result", nil)
		if code != http.StatusOK {
			t.Fatalf("result %s: %d", id, code)
		}
		bodies = append(bodies, res)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("result %d differs from result 0", i)
		}
	}
	if deduped != n-1 {
		t.Fatalf("deduplicated jobs = %d, want %d", deduped, n-1)
	}

	m := c.metrics()
	if got := m.MineExecutions - base.MineExecutions; got != 1 {
		t.Fatalf("batch cost %d mine executions, want exactly 1", got)
	}
	if got := m.DedupHits - base.DedupHits; got != n-1 {
		t.Fatalf("dedup hits = %d, want %d", got, n-1)
	}
}

// TestResultCacheHit: re-submitting a finished (dataset, config) pair is
// served from the cache without a new execution, byte-identically.
func TestResultCacheHit(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 1})
	dsID := c.register(smallCSV)

	first, code, body := c.submit(map[string]any{"dataset_id": dsID})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	if st := c.waitState(first.ID, JobDone, 10*time.Second); st.State != JobDone {
		t.Fatalf("first job ended %s", st.State)
	}
	_, res1 := c.do("GET", "/v1/jobs/"+first.ID+"/result", nil)
	base := c.metrics()

	// Same semantics, different wire spelling (workers is excluded from
	// the canonical key — it cannot change the result).
	second, code, body := c.submit(map[string]any{
		"dataset_id": dsID,
		"config":     map[string]any{"workers": 4},
	})
	if code != http.StatusAccepted {
		t.Fatalf("second submit: %d %s", code, body)
	}
	if second.State != JobDone || !second.CacheHit {
		t.Fatalf("second job: state=%s cache_hit=%v; want done from cache", second.State, second.CacheHit)
	}
	_, res2 := c.do("GET", "/v1/jobs/"+second.ID+"/result", nil)
	if !bytes.Equal(res1, res2) {
		t.Fatal("cached result bytes differ from the original")
	}
	m := c.metrics()
	if m.MineExecutions != base.MineExecutions {
		t.Fatal("cache hit still executed a mine")
	}
	if m.CacheHits-base.CacheHits != 1 {
		t.Fatalf("cache hits delta = %d, want 1", m.CacheHits-base.CacheHits)
	}

	// A body still carrying the retired "counting" knob is an unknown
	// field: ignored, so it names the same config and the same bytes.
	third, code, body := c.submit(map[string]any{
		"dataset_id": dsID,
		"config":     map[string]any{"counting": "slice"},
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit with counting: %d %s", code, body)
	}
	if third.ConfigHash != first.ConfigHash {
		t.Fatalf("counting changed config_hash: %s vs %s", third.ConfigHash, first.ConfigHash)
	}
	c.waitState(third.ID, JobDone, 10*time.Second)
	_, res3 := c.do("GET", "/v1/jobs/"+third.ID+"/result", nil)
	if !bytes.Equal(res1, res3) {
		t.Fatal("counting changed the /result bytes")
	}
}

// TestCancelRunningJob: DELETE on a long-running mine returns promptly and
// the job lands in canceled — the paper-core context checks, exercised
// through the whole HTTP stack.
func TestCancelRunningJob(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 1})
	dsID := c.register(heavyCSV(2500, 8))

	st, code, body := c.submit(map[string]any{
		"dataset_id": dsID,
		"config":     map[string]any{"max_depth": 4, "delta": 0.01},
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	if got := c.waitState(st.ID, JobRunning, 10*time.Second); got.State != JobRunning {
		t.Fatalf("job reached %s before cancellation", got.State)
	}

	start := time.Now()
	code, body = c.do("DELETE", "/v1/jobs/"+st.ID, nil)
	if code != http.StatusOK {
		t.Fatalf("cancel: %d %s", code, body)
	}
	final := c.waitState(st.ID, JobCanceled, 5*time.Second)
	if final.State != JobCanceled {
		t.Fatalf("job ended %s, want canceled", final.State)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("cancellation took %s", d)
	}

	// The result is gone, not pending.
	if code, _ := c.do("GET", "/v1/jobs/"+st.ID+"/result", nil); code != http.StatusGone {
		t.Fatalf("result of canceled job: %d, want 410", code)
	}
	// Canceling again is idempotent.
	if code, _ := c.do("DELETE", "/v1/jobs/"+st.ID, nil); code != http.StatusOK {
		t.Fatalf("re-cancel: %d", code)
	}
}

// TestOverload: with one worker and a one-slot queue, a third concurrent
// job is refused with 429 + Retry-After instead of queuing unboundedly.
func TestOverload(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	heavyID := c.register(heavyCSV(2500, 8))

	running, code, body := c.submit(map[string]any{
		"dataset_id": heavyID,
		"config":     map[string]any{"max_depth": 4, "delta": 0.01},
	})
	if code != http.StatusAccepted {
		t.Fatalf("first: %d %s", code, body)
	}
	c.waitState(running.ID, JobRunning, 10*time.Second)

	// Occupies the single queue slot (distinct config: no dedup).
	queued, code, body := c.submit(map[string]any{
		"dataset_id": heavyID,
		"config":     map[string]any{"max_depth": 3, "delta": 0.01},
	})
	if code != http.StatusAccepted {
		t.Fatalf("second: %d %s", code, body)
	}

	// Queue full now.
	req, _ := http.NewRequest("POST", c.base+"/v1/jobs", strings.NewReader(
		fmt.Sprintf(`{"dataset_id":%q,"config":{"max_depth":2,"delta":0.01}}`, heavyID)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	rejBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload submit: %d %s", resp.StatusCode, rejBody)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	m := c.metrics()
	if m.QueueDepth != 1 || m.QueueCapacity != 1 {
		t.Fatalf("queue %d/%d, want 1/1", m.QueueDepth, m.QueueCapacity)
	}

	// Clean up promptly so the test server drains fast.
	c.do("DELETE", "/v1/jobs/"+queued.ID, nil)
	c.do("DELETE", "/v1/jobs/"+running.ID, nil)
	c.waitState(running.ID, JobCanceled, 5*time.Second)
}

// TestBadConfigRejected: malformed mining configs are 400s carrying the
// offending field names; unknown enums and attrs are 400s too.
func TestBadConfigRejected(t *testing.T) {
	_, c := newTestServer(t, Options{})
	dsID := c.register(smallCSV)

	_, code, body := c.submit(map[string]any{
		"dataset_id": dsID,
		"config":     map[string]any{"alpha": 2.0, "delta": -0.5},
	})
	if code != http.StatusBadRequest {
		t.Fatalf("invalid config: %d %s", code, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"Alpha": false, "Delta": false}
	for _, f := range eb.Fields {
		if _, ok := want[f]; ok {
			want[f] = true
		}
	}
	for f, seen := range want {
		if !seen {
			t.Fatalf("400 body missing field %s: %s", f, body)
		}
	}

	for name, cfg := range map[string]map[string]any{
		"bad measure": {"measure": "zscore"},
		"bad oe_mode": {"oe_mode": "wild"},
		"bad attr":    {"attrs": []string{"no_such_column"}},
	} {
		if _, code, _ := c.submit(map[string]any{"dataset_id": dsID, "config": cfg}); code != http.StatusBadRequest {
			t.Fatalf("%s: %d, want 400", name, code)
		}
	}

	// Unknown dataset is 404; junk body is 400.
	if _, code, _ := c.submit(map[string]any{"dataset_id": "ds_missing"}); code != http.StatusNotFound {
		t.Fatalf("unknown dataset: %d", code)
	}
	if code, _ := c.do("POST", "/v1/datasets", map[string]any{"csv": "a,g\n1,x\n"}); code != http.StatusBadRequest {
		t.Fatalf("register without group_column: %d", code)
	}
}

// TestJobTimeout: a job whose deadline expires lands in failed (deadline
// exceeded is an execution failure, not a caller cancellation).
func TestJobTimeout(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 1})
	dsID := c.register(heavyCSV(2500, 8))
	st, code, body := c.submit(map[string]any{
		"dataset_id": dsID,
		"config":     map[string]any{"max_depth": 4, "delta": 0.01},
		"timeout_ms": 50,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	final := c.waitState(st.ID, JobFailed, 10*time.Second)
	if final.State != JobFailed || !strings.Contains(final.Error, "deadline") {
		t.Fatalf("timed-out job: state=%s err=%q", final.State, final.Error)
	}
}

// TestDrain: Close stops admissions (503 from both submit and readyz,
// while liveness /healthz stays 200 and reports draining), finishes by
// canceling stragglers, and leaves no worker goroutines — the goroutine
// count returning to baseline is the leak check.
func TestDrain(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(Options{Workers: 4})
	ts := httptest.NewServer(s.Handler())
	c := &client{t: t, base: ts.URL}

	dsID := c.register(heavyCSV(2500, 8))
	st, code, body := c.submit(map[string]any{
		"dataset_id": dsID,
		"config":     map[string]any{"max_depth": 4, "delta": 0.01},
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	c.waitState(st.ID, JobRunning, 10*time.Second)

	// Short grace: the running mine is context-canceled by the drain.
	done := make(chan struct{})
	go func() { s.Close(50 * time.Millisecond); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return")
	}

	if got := c.status(st.ID); !got.State.Terminal() {
		t.Fatalf("job still %s after drain", got.State)
	}
	if _, code, _ := c.submit(map[string]any{"dataset_id": dsID}); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: %d, want 503", code)
	}
	if code, body := c.do("GET", "/healthz", nil); code != http.StatusOK || !bytes.Contains(body, []byte("draining")) {
		t.Fatalf("post-drain healthz: %d %s, want 200 + draining", code, body)
	}
	if code, body := c.do("GET", "/readyz", nil); code != http.StatusServiceUnavailable || !bytes.Contains(body, []byte("draining")) {
		t.Fatalf("post-drain readyz: %d %s, want 503 + draining", code, body)
	}
	ts.Close()

	// Goroutine count settles back to (near) the baseline: the worker pool
	// and the job contexts are gone. Generous slack for runtime goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after drain", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestConcurrentClients hammers one server from many goroutines mixing
// registrations, submissions, polls, metrics and cancellations — primarily
// a -race exercise for the registry/manager/cache locking.
func TestConcurrentClients(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 4, RowBudget: 500, CacheEntries: 8})

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Each client registers its own small dataset (some collide by
			// content) and runs a couple of jobs to completion.
			csv := csvRows(40+(i%3)*10, fmt.Sprintf("cl%d", i%4))
			code, body := c.do("POST", "/v1/datasets", map[string]any{
				"name": fmt.Sprintf("client-%d", i), "group_column": "g", "csv": string(csv),
			})
			if code != http.StatusCreated {
				errc <- fmt.Errorf("client %d register: %d %s", i, code, body)
				return
			}
			var info DatasetInfo
			if err := json.Unmarshal(body, &info); err != nil {
				errc <- err
				return
			}
			for r := 0; r < 2; r++ {
				st, code, body := c.submit(map[string]any{
					"dataset_id": info.ID,
					"config":     map[string]any{"top_k": 10 + r},
				})
				if code == http.StatusTooManyRequests {
					continue // admission control doing its job
				}
				if code != http.StatusAccepted {
					errc <- fmt.Errorf("client %d submit: %d %s", i, code, body)
					return
				}
				deadline := time.Now().Add(15 * time.Second)
				for {
					got := c.status(st.ID)
					if got.State.Terminal() {
						if got.State != JobDone {
							errc <- fmt.Errorf("client %d job %s: %s (%s)", i, st.ID, got.State, got.Error)
						}
						break
					}
					if time.Now().After(deadline) {
						errc <- fmt.Errorf("client %d job %s stuck", i, st.ID)
						break
					}
					c.metrics() // concurrent metrics reads race-test liveMetrics
					time.Sleep(2 * time.Millisecond)
				}
			}
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestAlgorithmsEndToEnd runs every registered algorithm over the HTTP API
// and checks the status reports the algorithm and the result renders.
func TestAlgorithmsEndToEnd(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 2})
	dsID := c.register(smallCSV)

	for _, alg := range engine.Algorithms() {
		if alg == "panic-test" {
			continue // the panic-isolation test's deliberately-exploding miner
		}
		st, code, body := c.submit(map[string]any{
			"dataset_id": dsID,
			"config":     map[string]any{"algorithm": alg},
		})
		if code != http.StatusAccepted {
			t.Fatalf("%s: submit %d %s", alg, code, body)
		}
		fin := c.waitState(st.ID, JobDone, 15*time.Second)
		if fin.State != JobDone {
			t.Fatalf("%s: job ended %s (%s)", alg, fin.State, fin.Error)
		}
		if fin.Algorithm != alg {
			t.Fatalf("%s: status algorithm = %q", alg, fin.Algorithm)
		}
		code, res := c.do("GET", "/v1/jobs/"+st.ID+"/result", nil)
		if code != http.StatusOK {
			t.Fatalf("%s: result %d %s", alg, code, res)
		}
		var parsed []any
		if err := json.Unmarshal(res, &parsed); err != nil {
			t.Fatalf("%s: result not JSON: %v", alg, err)
		}
	}

	// Unknown algorithm and unknown measure are typed 400s.
	for field, cfg := range map[string]map[string]any{
		"Algorithm": {"algorithm": "apriori"},
		"measure":   {"algorithm": "stucco", "measure": "lift"},
	} {
		_, code, body := c.submit(map[string]any{"dataset_id": dsID, "config": cfg})
		if code != http.StatusBadRequest {
			t.Fatalf("%s: %d, want 400 (%s)", field, code, body)
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil {
			t.Fatal(err)
		}
		found := false
		for _, f := range eb.Fields {
			if f == field {
				found = true
			}
		}
		if !found {
			t.Fatalf("400 body missing field %s: %s", field, body)
		}
	}
}

// TestAlgorithmCacheEquivalence is the canonical-key acceptance test:
// equivalent (algorithm, measure) spellings fold to one cache key, so the
// second submission is a born-done cache hit whose /result body is
// byte-identical to the first — while changing the algorithm or the
// measure misses the cache and costs a fresh execution.
func TestAlgorithmCacheEquivalence(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 1})
	dsID := c.register(smallCSV)

	run := func(cfg map[string]any) (JobStatus, []byte) {
		t.Helper()
		st, code, body := c.submit(map[string]any{"dataset_id": dsID, "config": cfg})
		if code != http.StatusAccepted {
			t.Fatalf("submit %v: %d %s", cfg, code, body)
		}
		fin := c.waitState(st.ID, JobDone, 15*time.Second)
		if fin.State != JobDone {
			t.Fatalf("job %v ended %s (%s)", cfg, fin.State, fin.Error)
		}
		code, res := c.do("GET", "/v1/jobs/"+st.ID+"/result", nil)
		if code != http.StatusOK {
			t.Fatalf("result %v: %d", cfg, code)
		}
		return fin, res
	}

	base := c.metrics()
	_, res1 := run(map[string]any{"algorithm": "stucco"})

	// Same algorithm and measure, spelled with every default made explicit
	// plus result-neutral knobs flipped: one canonical key, zero executions.
	second, res2 := run(map[string]any{
		"algorithm": "stucco", "alpha": 0.05, "top_k": 100,
		"measure": "diff", "workers": 8,
	})
	if !second.CacheHit {
		t.Fatalf("equivalent spelling was not a cache hit: %+v", second)
	}
	if !bytes.Equal(res1, res2) {
		t.Fatal("equivalent (algorithm, measure) configs returned different result bytes")
	}
	m := c.metrics()
	if got := m.MineExecutions - base.MineExecutions; got != 1 {
		t.Fatalf("two equivalent spellings cost %d executions, want 1", got)
	}

	// A different measure or algorithm must not share the key.
	third, res3 := run(map[string]any{"algorithm": "stucco", "measure": "wracc"})
	if third.CacheHit {
		t.Fatal("different measure was served from the cache")
	}
	if bytes.Equal(res1, res3) {
		t.Fatal("different measure produced byte-identical result (scores should differ)")
	}
	fourth, _ := run(map[string]any{"algorithm": "subgroup"})
	if fourth.CacheHit {
		t.Fatal("different algorithm was served from the cache")
	}
	if got := c.metrics().MineExecutions - base.MineExecutions; got != 3 {
		t.Fatalf("total executions = %d, want 3", got)
	}
}
