package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sdadcs/internal/core"
	"sdadcs/internal/datagen"
	"sdadcs/internal/dataset"
	"sdadcs/internal/report"
	"sdadcs/internal/serve"
	"sdadcs/internal/store"
)

// jobCycle is each client's fixed job mix: six sdadcs jobs with distinct
// top_k, one repeat of the client's previous sdadcs job (a result-cache
// hit), and one each of the subgroup, entropy and stucco baselines. MVD
// is left out: at 1.5 s a job it would set every percentile.
var jobCycle = []string{"sdadcs", "sdadcs", "subgroup", "sdadcs", "entropy", "sdadcs", "repeat", "sdadcs", "stucco", "sdadcs"}

const (
	serveClients = 2
	serveDepth   = 2
	// maxJobsPerClient bounds the job bodies generated up front; a client
	// that exhausts them stops early.
	maxJobsPerClient = 4000
	// minJobsPerClient is the fewest jobs each client runs in a phase
	// (tinyMinJobs with --tiny), however long they take. max_rss_mb is
	// read when the phase's serveClients*minJobsPerClient-th job
	// completes: the server keeps every finished job, each with its
	// tracer, so the process grows with the number of jobs run, and a
	// fixed job count keeps the figure independent of how many jobs fit
	// in the run's time.
	minJobsPerClient = 40
	tinyMinJobs      = 3
)

// jobPlan is one client's pre-generated job sequence.
type jobPlan struct {
	alg    []string // algorithm of job n ("sdadcs" for a repeat)
	topK   []int
	repeat []int // index of the job a repeat replays, -1 otherwise
}

// planJobs generates client c's sequence. top_k is distinct for every job
// of the run except repeats, and large enough never to bind, so distinct
// jobs of one algorithm do the same work. Client c starts c*5 jobs into
// the cycle, so the two clients run different algorithms at the same time.
func planJobs(c int) jobPlan {
	var p jobPlan
	lastSDADCS := -1
	for n := 0; n < maxJobsPerClient; n++ {
		kind := jobCycle[(n+c*5)%len(jobCycle)]
		switch {
		case kind == "repeat" && lastSDADCS >= 0:
			p.alg = append(p.alg, "sdadcs")
			p.topK = append(p.topK, p.topK[lastSDADCS])
			p.repeat = append(p.repeat, lastSDADCS)
			continue
		case kind == "repeat":
			kind = "sdadcs"
		}
		p.alg = append(p.alg, kind)
		p.topK = append(p.topK, 1000+serveClients*n+c)
		p.repeat = append(p.repeat, -1)
		if kind == "sdadcs" {
			lastSDADCS = n
		}
	}
	return p
}

// body is job n's POST /v1/jobs request.
func (p jobPlan) body(datasetID string, n int) []byte {
	b, err := json.Marshal(serve.JobRequest{DatasetID: datasetID, Config: serve.ConfigRequest{
		Algorithm: p.alg[n], MaxDepth: serveDepth, TopK: p.topK[n],
	}})
	if err != nil {
		panic(err) // a fixed struct of strings and ints always marshals
	}
	return b
}

// service is one set-up serving stack: a store in its own directory, the
// server on top of it, an HTTP listener, and the registered dataset.
type service struct {
	dir       string
	st        *store.Store
	srv       *serve.Server
	http      *httptest.Server
	datasetID string
}

func (s *service) close() error {
	if s.http != nil {
		s.http.Close()
	}
	s.srv.Close(10 * time.Second)
	return s.st.Close()
}

// startService opens a store in dir, builds a server over it and starts
// its HTTP listener.
func startService(dir string) (*service, error) {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	s := &service{dir: dir, st: st, srv: serve.New(serve.Options{Workers: serveClients, Store: st})}
	s.http = httptest.NewServer(s.srv.Handler())
	return s, nil
}

// post sends a JSON body and decodes a JSON reply, requiring status want.
func post(c *http.Client, url string, body []byte, want int, out any) error {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("POST %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// get fetches a body, requiring status 200.
func get(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

func runServe(r *runner) error {
	gen := datagen.AdultConfig{Seed: r.opts.seed, Bachelors: 4000, Doctorate: 300}
	if r.opts.tiny {
		gen.Bachelors, gen.Doctorate = 400, 60
	}
	csv, err := csvBytes(datagen.Adult(gen))
	if err != nil {
		return err
	}
	regBody, err := json.Marshal(serve.RegisterRequest{Name: "adult", GroupColumn: "group", CSV: string(csv)})
	if err != nil {
		return err
	}
	plans := make([]jobPlan, serveClients)
	for c := range plans {
		plans[c] = planJobs(c)
	}
	root, err := os.MkdirTemp(r.opts.workDir, "serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	dirs := 0
	nextDir := func() string {
		dirs++
		return filepath.Join(root, strconv.Itoa(dirs))
	}

	// The reference parse: the dataset the direct mines below run on, and
	// the dataset layer's share of registration.
	var ref *dataset.Dataset
	var parses []float64
	for i := 0; moreSetups(i, parses); i++ {
		t0 := time.Now()
		if ref, err = dataset.FromCSV(bytes.NewReader(csv), dataset.CSVOptions{GroupColumn: "group", Name: "adult"}); err != nil {
			return err
		}
		t1 := time.Now()
		parses = append(parses, t1.Sub(t0).Seconds())
		r.spans.add("dataset.FromCSV", r.nextOp(), 0, t0, t1)
	}
	r.set("dataset.parse_s", median(parses))

	// Set-up: open a store, start the server, register the dataset over
	// HTTP (the registry parses it and writes it through to the store).
	setup := func() (*service, float64, float64, error) {
		runtime.GC()
		t0 := time.Now()
		svc, err := startService(nextDir())
		if err != nil {
			return nil, 0, 0, err
		}
		t1 := time.Now()
		var info serve.DatasetInfo
		if err := post(svc.http.Client(), svc.http.URL+"/v1/datasets", regBody, http.StatusCreated, &info); err != nil {
			svc.close()
			return nil, 0, 0, err
		}
		t2 := time.Now()
		svc.datasetID = info.ID
		op := r.nextOp()
		sp := r.spans.add("setup", op, 0, t0, t2)
		r.spans.add("store.Open+serve.New", op, sp, t0, t1)
		r.spans.add("http.POST /v1/datasets", op, sp, t1, t2)
		return svc, t2.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), nil
	}
	var svc *service
	var setups, registers []float64
	for i := 0; moreSetups(i, setups); i++ {
		if svc != nil {
			if err := svc.close(); err != nil {
				return err
			}
		}
		s, total, reg, err := setup()
		if err != nil {
			return err
		}
		svc = s
		setups = append(setups, total)
		registers = append(registers, reg)
	}
	r.set("setup_s", median(setups))
	r.set("store.register_s", median(registers))
	r.logf("%d rows, %d attributes, set-up %.3fs", ref.Rows(), ref.NumAttrs(), median(setups))

	minJobs := minJobsPerClient
	if r.opts.tiny {
		minJobs = tinyMinJobs
	}
	plain, tracedBudget := r.phases()
	u := serveLoop(r, svc, plans, plain, minJobs, 0, false)
	r.set("max_rss_mb", u.rssMB)
	if err := svc.close(); err != nil {
		return err
	}
	tsvc, _, _, err := setup()
	if err != nil {
		return err
	}
	t := serveLoop(r, tsvc, plans, tracedBudget, minJobs, r.tracedOps(), true)
	if err := tsvc.close(); err != nil {
		return err
	}
	r.ops(u.jobs+t.jobs, u.errors+t.errors)

	lat := u.lat()
	r.set("op_p50_s", median(lat))
	r.set("ops_per_s", float64(u.jobs-u.errors)/u.wall.Seconds())
	r.set("trace.overhead_ratio", ratio(median(t.lat()), median(lat)))
	t.report(r)
	r.logf("untraced: %d jobs, p50 %.4fs p90 %.4fs; traced: %d jobs, p50 %.4fs",
		u.jobs, median(lat), quantile(lat, 0.9), t.jobs, median(t.lat()))

	// Correctness, outside the timed phases.
	r.check(u.indexBuilds == 1 && t.indexBuilds == 1,
		"bitmap index built %d and %d times, want once per server", u.indexBuilds, t.indexBuilds)
	for c := range plans {
		checkSame(r, fmt.Sprintf("client %d: traced results against untraced ones", c),
			u.clients[c].digests, t.clients[c].digests)
		var orig, repeat []string
		for n, o := range plans[c].repeat[:len(u.clients[c].digests)] {
			if o >= 0 {
				orig = append(orig, u.clients[c].digests[o])
				repeat = append(repeat, u.clients[c].digests[n])
			}
		}
		if len(repeat) > 0 {
			checkSame(r, fmt.Sprintf("client %d: repeated jobs against their originals", c), orig, repeat)
		}
	}
	// The first and the last sdadcs result of client 0 against a direct
	// core.Mine of the same configuration, rendered as /result renders.
	var firstBody []byte
	first, last := -1, -1
	for n, alg := range plans[0].alg[:len(u.clients[0].bodies)] {
		if alg == "sdadcs" && u.clients[0].bodies[n] != nil {
			if first < 0 {
				first = n
			}
			last = n
		}
	}
	r.check(first >= 0, "client 0 completed no sdadcs job")
	if first >= 0 {
		firstBody = u.clients[0].bodies[first]
		for _, n := range []int{first, last} {
			res := core.Mine(ref, core.Config{MaxDepth: serveDepth, TopK: plans[0].topK[n]})
			var want bytes.Buffer
			if err := report.JSON(&want, ref, res.Contrasts); err != nil {
				return err
			}
			r.check(bytes.Equal(want.Bytes(), u.clients[0].bodies[n]),
				"client 0 job %d: /result differs from a direct core.Mine", n)
		}
	}

	// Restart: reopen the untraced phase's store, acquire the dataset cold,
	// and rerun client 0's first sdadcs job on the rehydrated registry.
	var colds []float64
	for i := 0; i < minSetups; i++ {
		t0 := time.Now()
		st, err := store.Open(svc.dir, store.Options{})
		if err != nil {
			return err
		}
		srv := serve.New(serve.Options{Workers: serveClients, Store: st})
		_, _, release, ok := srv.Registry().Acquire(svc.datasetID)
		t1 := time.Now()
		colds = append(colds, t1.Sub(t0).Seconds())
		r.spans.add("store.Open+Registry.Acquire", r.nextOp(), 0, t0, t1)
		r.check(ok, "dataset %s missing after the store reopened", svc.datasetID)
		if ok {
			release()
		}
		if i == minSetups-1 && ok && firstBody != nil {
			re := &service{dir: svc.dir, st: st, srv: srv, http: httptest.NewServer(srv.Handler()), datasetID: svc.datasetID}
			body, err := runJob(re.http.Client(), re, plans[0].body(svc.datasetID, first))
			r.check(err == nil && bytes.Equal(body, firstBody),
				"job after the store reopened: /result differs (err %v)", err)
			if err := re.close(); err != nil {
				return err
			}
			continue
		}
		srv.Close(time.Second)
		if err := st.Close(); err != nil {
			return err
		}
	}
	r.set("store.cold_acquire_s", median(colds))
	return nil
}

// runJob submits one job, waits for it and returns its /result body.
func runJob(c *http.Client, svc *service, body []byte) ([]byte, error) {
	var st serve.JobStatus
	if err := post(c, svc.http.URL+"/v1/jobs", body, http.StatusAccepted, &st); err != nil {
		return nil, err
	}
	job, ok := svc.srv.Manager().Job(st.ID)
	if !ok {
		return nil, fmt.Errorf("job %s not found", st.ID)
	}
	<-job.Done()
	return get(c, svc.http.URL+"/v1/jobs/"+st.ID+"/result")
}

// clientLog is what one closed-loop client observed, indexed by its job
// number.
type clientLog struct {
	lat, submit, result []float64 // seconds
	queue, run          []float64 // seconds, executed (not cache-hit) jobs
	runByAlg            map[string][]float64
	cacheHits           int
	digests             []string
	bodies              [][]byte // client 0 only
	errors              []string
	layers              layerSamples
	spans               *spanLog
}

// servePhase is what one serve phase observed.
type servePhase struct {
	clients     []*clientLog
	jobs        int
	errors      int
	wall        time.Duration
	indexBuilds int64
	walFsyncs   uint64
	rssMB       float64 // peak RSS when the clients' minJobs-th jobs completed
}

func (sp servePhase) lat() []float64 {
	var out []float64
	for _, c := range sp.clients {
		out = append(out, c.lat...)
	}
	return out
}

// serveLoop runs the closed-loop clients against svc for budget (each
// client runs at least minJobs jobs, at most maxOps when maxOps > 0), then
// reads the server's metrics.
func serveLoop(r *runner, svc *service, plans []jobPlan, budget time.Duration, minJobs, maxOps int, traced bool) servePhase {
	sp := servePhase{clients: make([]*clientLog, len(plans))}
	start := time.Now()
	deadline := start.Add(budget)
	var done atomic.Int64
	var rss atomic.Uint64
	completed := func() {
		if done.Add(1) == int64(len(plans)*minJobs) {
			rss.Store(math.Float64bits(maxRSSMB()))
		}
	}
	var wg sync.WaitGroup
	for c := range plans {
		cl := &clientLog{runByAlg: map[string][]float64{}, layers: layerSamples{}}
		if traced {
			cl.spans = newSpanLog()
		}
		sp.clients[c] = cl
		opBase := r.opSeq + int64(c*maxJobsPerClient)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client(svc, plans[c], cl, c == 0, opBase, deadline, minJobs, maxOps, completed)
		}(c)
	}
	wg.Wait()
	sp.wall = time.Since(start)
	sp.rssMB = math.Float64frombits(rss.Load())
	if sp.rssMB == 0 {
		sp.rssMB = maxRSSMB()
	}
	r.opSeq += int64(len(plans) * maxJobsPerClient)
	for c, cl := range sp.clients {
		sp.jobs += len(cl.lat) + len(cl.errors)
		sp.errors += len(cl.errors)
		for _, e := range cl.errors {
			r.logf("client %d: %s", c, e)
		}
		r.spans.merge(cl.spans)
	}
	m := svc.srv.Metrics()
	sp.indexBuilds = m.IndexBuilds
	if m.Store != nil {
		sp.walFsyncs = m.Store.WALFsyncs
	}
	return sp
}

// client is one closed-loop client: it submits a job over HTTP, waits on
// the job's Done channel (so no polling interval enters the latency),
// fetches /result, and only then submits the next.
func client(svc *service, plan jobPlan, cl *clientLog, keepBodies bool, opBase int64, deadline time.Time, minJobs, maxOps int, completed func()) {
	hc := svc.http.Client()
	for n := 0; n < len(plan.alg); n++ {
		if (n >= minJobs && !time.Now().Before(deadline)) || (maxOps > 0 && n >= maxOps) {
			return
		}
		body := plan.body(svc.datasetID, n)
		t0 := time.Now()
		var st serve.JobStatus
		err := post(hc, svc.http.URL+"/v1/jobs", body, http.StatusAccepted, &st)
		t1 := time.Now()
		var job *serve.Job
		if err == nil {
			var ok bool
			if job, ok = svc.srv.Manager().Job(st.ID); !ok {
				err = fmt.Errorf("job %s not found", st.ID)
			}
		}
		var res []byte
		var t2 time.Time
		if err == nil {
			<-job.Done()
			t2 = time.Now()
			res, err = get(hc, svc.http.URL+"/v1/jobs/"+st.ID+"/result")
		}
		t3 := time.Now()
		if err != nil {
			cl.errors = append(cl.errors, fmt.Sprintf("job %d: %v", n, err))
			cl.digests = append(cl.digests, "error")
			if keepBodies {
				cl.bodies = append(cl.bodies, nil)
			}
			continue
		}
		completed()
		cl.lat = append(cl.lat, t3.Sub(t0).Seconds())
		cl.submit = append(cl.submit, t1.Sub(t0).Seconds())
		cl.result = append(cl.result, t3.Sub(t2).Seconds())
		cl.digests = append(cl.digests, bytesDigest(res))
		if keepBodies {
			cl.bodies = append(cl.bodies, res)
		}
		status := job.Status()
		op := opBase + int64(n) + 1
		root := cl.spans.add("job "+plan.alg[n], op, 0, t0, t3)
		cl.spans.add("http.POST /v1/jobs", op, root, t0, t1)
		if status.CacheHit || status.StartedAt == nil || status.FinishedAt == nil {
			cl.cacheHits++
		} else {
			started, finished := *status.StartedAt, *status.FinishedAt
			cl.queue = append(cl.queue, started.Sub(status.CreatedAt).Seconds())
			run := finished.Sub(started).Seconds()
			cl.run = append(cl.run, run)
			cl.runByAlg[plan.alg[n]] = append(cl.runByAlg[plan.alg[n]], run)
			cl.spans.add("serve.queue", op, root, status.CreatedAt, started)
			runSpan := cl.spans.add("engine."+plan.alg[n], op, root, started, finished)
			if out, _, _ := job.Output(); cl.spans != nil && out != nil {
				// The job's tracer starts just before StartedAt is stamped.
				cl.spans.addTraceSpans(out.Trace, op, runSpan, started)
				if plan.alg[n] == "sdadcs" {
					cl.layers.add(workOf(out.Metrics, out.Trace).layerMetrics(0))
				}
			}
		}
		cl.spans.add("http.GET /result", op, root, t2, t3)
	}
}

// report sets the serve layer's per-layer metrics from a traced phase.
func (sp servePhase) report(r *runner) {
	var submit, result, queue, run []float64
	runByAlg := map[string][]float64{}
	layers := layerSamples{}
	hits, jobs := 0, 0
	for _, c := range sp.clients {
		submit = append(submit, c.submit...)
		result = append(result, c.result...)
		queue = append(queue, c.queue...)
		run = append(run, c.run...)
		for alg, v := range c.runByAlg {
			runByAlg[alg] = append(runByAlg[alg], v...)
		}
		for k, v := range c.layers {
			layers[k] = append(layers[k], v...)
		}
		hits += c.cacheHits
		jobs += len(c.lat)
	}
	layers.report(r)
	var lat []float64
	for _, c := range sp.clients {
		lat = append(lat, c.lat...)
	}
	r.set("serve.job_p90_s", quantile(lat, 0.9))
	r.set("serve.submit_p50_ms", median(submit)*1e3)
	r.set("serve.result_p50_ms", median(result)*1e3)
	r.set("serve.queue_wait_p50_ms", median(queue)*1e3)
	r.set("serve.run_p50_s", median(run))
	r.set("serve.cache_hit_ratio", ratio(float64(hits), float64(jobs)))
	r.set("serve.index_builds", float64(sp.indexBuilds))
	r.set("store.wal_fsyncs", float64(sp.walFsyncs))
	for _, alg := range []string{"sdadcs", "subgroup", "entropy", "stucco"} {
		r.set("engine."+alg+"_run_p50_s", median(runByAlg[alg]))
	}
}
