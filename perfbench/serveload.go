package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"anongeo/internal/core"
	"anongeo/internal/exp"
	"anongeo/internal/geo"
	"anongeo/internal/lbs"
	"anongeo/internal/serve"
)

// The serve workload is a closed loop of serveClients clients against
// the daemon's HTTP API on loopback (serve.New's handler behind a real
// listener, with cache and journal in a directory of the run's own).
// Each operation POSTs a one- or two-cell job, streams its events until
// the job is terminal, and GETs the finished job. Every client repeats
// a fixed cycle of five operations, so the mix is:
//
//	fresh /v1/sweeps GPSR cell   execute (cache write, WAL appends)
//	fresh /v1/sweeps AGFW cell   (same scenario)
//	fresh /v1/lbs cell           execute on the LBS orchestrator
//	regrid of the two cells      a new job over the same cells (cache reads)
//	re-POST of the GPSR job      dedupe onto the finished job
//
// A fixed prefill runs first on a durable daemon, with cache and journal
// in the run's directory. Set-up time is a restart on the journal and
// cache it left behind, timed until /readyz answers, which times WAL
// replay. The measured window then runs on in-memory daemons, without
// cache or journal: the directory is on disk, and the fsyncs of a
// durable daemon made its timings follow the host's disk, which other
// tenants share (see README.md). The window runs in segments, each on a
// new daemon, so the job table and the daemon's heap do not grow with
// the run's length.
const (
	serveClients   = 2
	serveCycle     = 5
	servePrefill   = 20 // cycles per client on the durable daemon
	serveRestarts  = 21
	serveSegment   = 40 // cycles per client on one in-memory daemon
	serveStopAfter = 30 * time.Second
	// serveOpsPerS is each client's nominal operation rate on the
	// reference host: a run of d seconds gives each client
	// round(d × serveOpsPerS) operations, in whole cycles, so every run
	// of one seed and length does the same work and holds the same jobs.
	serveOpsPerS = 280
)

// serveSweepBase is the scenario of a fresh sweep cell: a Figure 1
// cell shrunk to 10 nodes in 600×300 m for 3 simulated seconds, so that
// executing it costs about a millisecond and a job's time goes mostly
// to the daemon's admission, journal, cache and event stream.
func serveSweepBase(seed int64) core.Config {
	cfg := fig1Config(core.ProtoGPSR, 10, seed, 3*time.Second)
	cfg.Area = geo.NewRect(600, 300)
	cfg.Warmup = time.Second
	cfg.Flows, cfg.Senders = 3, 3
	return cfg
}

// serveLBSBase is the workload of a fresh LBS cell, 500 queries; the
// backend rotates over the three that need no key pairs.
func serveLBSBase(seed int64, i int) lbs.SweepRequest {
	cfg := lbs.DefaultConfig()
	cfg.Seed = seed
	cfg.Clients, cfg.Queries, cfg.Duration = 30, 500, 30*time.Second
	req := lbs.SweepRequest{Base: cfg, QueryCounts: []int{cfg.Queries}}
	switch i % 3 {
	case 0:
		req.Backends, req.Ks = []string{string(lbs.BackendKAnon)}, []int{5}
	case 1:
		req.Backends, req.GridLevels = []string{string(lbs.BackendGridCloak)}, []int{5}
	case 2:
		req.Backends, req.Epsilons = []string{string(lbs.BackendGeoInd)}, []float64{0.02}
	}
	return req
}

// daemon is one in-process agrsimd serving on a loopback port.
type daemon struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan error
}

// startDaemon starts a daemon, durable (cache and journal under dir)
// when dir is not empty.
func startDaemon(dir string) (*daemon, error) {
	// One job at a time, its cells one at a time: with the two clients,
	// which mostly wait on their event streams, the load stays within
	// the reference host's two vCPUs.
	opts := serve.Options{JobWorkers: 1, Parallel: 1}
	if dir != "" {
		opts.CacheDir = filepath.Join(dir, "cache")
		opts.JournalDir = filepath.Join(dir, "journal")
	}
	srv, err := serve.New(opts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Manager().Drain(context.Background())
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// stop drains the job manager, then shuts the listener down and waits
// for the serve goroutine to exit.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), serveStopAfter)
	defer cancel()
	err := d.srv.Manager().Drain(ctx)
	if e := d.hs.Shutdown(ctx); err == nil {
		err = e
	}
	if e := <-d.done; err == nil && !errors.Is(e, http.ErrServerClosed) {
		err = e
	}
	return err
}

// scrape reads the daemon's /metrics into name{labels} → value.
func scrape(c *http.Client, url string) (map[string]float64, error) {
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				out[line[:i]] = v
			}
		}
	}
	return out, sc.Err()
}

// opResult is what one client operation observed.
type opResult struct {
	latency   time.Duration // POST sent → terminal event received
	admit     time.Duration // POST round trip
	queueWait time.Duration // POST reply → first cell event (created jobs)
	cellWalls []time.Duration
	created   bool
	truncated bool // the event stream ended without the terminal event
	status    serve.JobStatus
}

// submit runs one operation: POST, stream events to the end, GET.
func submit(c *http.Client, url, path string, body []byte) (opResult, error) {
	var r opResult
	start := time.Now()
	resp, err := c.Post(url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return r, err
	}
	var sub struct {
		Created bool   `json:"created"`
		ID      string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return r, fmt.Errorf("POST %s: %s", path, resp.Status)
	}
	if err != nil {
		return r, fmt.Errorf("POST %s: %w", path, err)
	}
	r.admit, r.created = time.Since(start), sub.Created

	resp, err = c.Get(url + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		return r, err
	}
	dec := json.NewDecoder(resp.Body)
	terminal := false
	for !terminal {
		var ev serve.JobEvent
		if err := dec.Decode(&ev); err != nil {
			resp.Body.Close()
			// The daemon ends the stream only once the job is terminal,
			// but it can end it before the job-finished event is
			// written: Job.transition publishes the terminal state
			// before appending that event, and handleEvents returns on
			// a terminal state with an empty tail. Count it; the GET
			// below still checks the job's state and result.
			if !errors.Is(err, io.EOF) {
				return r, fmt.Errorf("events %s: %w", sub.ID, err)
			}
			r.truncated = true
			break
		}
		switch ev.Type {
		case exp.EventCellStarted, exp.EventCellCached:
			if r.queueWait == 0 && r.created {
				r.queueWait = time.Since(start) - r.admit
			}
		case exp.EventCellFinished:
			r.cellWalls = append(r.cellWalls, ev.Wall)
		}
		terminal = ev.State.Terminal()
	}
	r.latency = time.Since(start)
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	resp, err = c.Get(url + "/v1/jobs/" + sub.ID)
	if err != nil {
		return r, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return r, fmt.Errorf("GET job %s: %s", sub.ID, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&r.status); err != nil {
		return r, fmt.Errorf("GET job %s: %w", sub.ID, err)
	}
	if r.status.State != serve.JobDone {
		return r, fmt.Errorf("job %s ended %s: %s", sub.ID, r.status.State, r.status.Error)
	}
	return r, nil
}

// pending is a served result still to be compared with a direct run.
type pending struct {
	sweep  *core.Config
	lbs    *lbs.Config
	digest string
	what   string
}

// client is one closed-loop load generator; its operation sequence is
// a pure function of (seed, id).
type client struct {
	id    int
	seed  int64
	http  *http.Client
	next  int
	sweep [2]string // digests of the current cycle's fresh sweep cells
	jobA  string    // ID of the current cycle's GPSR job
	// durable says whether the daemon has a cache, so a regrid's
	// cells are cache reads.
	durable bool

	results []opResult
	checks  []pending
	w       window // attempted/failed/problems only
}

// step runs the client's next operation against url.
func (cl *client) step(url string) {
	i := cl.next
	cl.next++
	cycle, kind := i/serveCycle, i%serveCycle
	base := serveSweepBase(deriveSeed(cl.seed, 7, cl.id, cycle))
	sweepReq := func(protos ...string) serve.SweepRequest {
		return serve.SweepRequest{Base: base, NodeCounts: []int{base.Nodes}, Protocols: protos}
	}
	var (
		path = "/v1/sweeps"
		body any
	)
	switch kind {
	case 0:
		body = sweepReq("gpsr")
	case 1:
		body = sweepReq("agfw")
	case 2:
		path, body = "/v1/lbs", serveLBSBase(deriveSeed(cl.seed, 8, cl.id, cycle), cycle)
	case 3:
		body = sweepReq("gpsr", "agfw")
	case 4:
		body = sweepReq("gpsr")
	}
	raw, err := json.Marshal(body)
	cl.w.attempted++
	if err != nil {
		cl.w.fail("client %d op %d: %v", cl.id, i, err)
		return
	}
	r, err := submit(cl.http, url, path, raw)
	if err != nil {
		cl.w.fail("client %d op %d: %v", cl.id, i, err)
		return
	}
	st := r.status
	// Only the timings are kept; the status is checked below.
	r.status = serve.JobStatus{}
	cl.results = append(cl.results, r)
	what := fmt.Sprintf("client %d op %d", cl.id, i)
	pointDigest := func(k int) string {
		if k >= len(st.Points) {
			cl.w.fail("%s: %d points, want more than %d", what, len(st.Points), k)
			return ""
		}
		d, err := digestOf(st.Points[k].Result)
		if err != nil {
			cl.w.fail("%s: %v", what, err)
		}
		return d
	}
	switch kind {
	case 0, 1:
		if !r.created {
			cl.w.fail("%s: fresh sweep deduped onto %s", what, st.ID)
		}
		proto := []core.Protocol{core.ProtoGPSR, core.ProtoAGFW}[kind]
		cell := core.SweepCells(base, []int{base.Nodes}, []core.Protocol{proto}, 1)[0].Config
		cl.sweep[kind] = pointDigest(0)
		cl.checks = append(cl.checks, pending{sweep: &cell, digest: cl.sweep[kind], what: what})
		if kind == 0 {
			cl.jobA = st.ID
		}
	case 2:
		if !r.created || len(st.Curves) != 1 {
			cl.w.fail("%s: lbs job created=%v with %d curve points", what, r.created, len(st.Curves))
			return
		}
		norm, err := body.(lbs.SweepRequest).Normalize()
		if err != nil {
			cl.w.fail("%s: %v", what, err)
			return
		}
		cell := norm.Cells()[0].Config
		d, err := digestOf(st.Curves[0].Result)
		if err != nil {
			cl.w.fail("%s: %v", what, err)
		}
		cl.checks = append(cl.checks, pending{lbs: &cell, digest: d, what: what})
	case 3:
		cached := 0
		if cl.durable {
			cached = 2
		}
		if a, b := pointDigest(0), pointDigest(1); a != cl.sweep[0] || b != cl.sweep[1] || st.Cells.Cached != cached {
			cl.w.fail("%s: regrid differs from its cells (cached %d of 2, want %d)", what, st.Cells.Cached, cached)
		}
	case 4:
		if r.created || st.ID != cl.jobA || pointDigest(0) != cl.sweep[0] {
			cl.w.fail("%s: re-POST created=%v id %s, want the finished job %s", what, r.created, st.ID, cl.jobA)
		}
	}
}

// verify compares every served result with a direct run of its cell.
func (cl *client) verify() {
	for _, c := range cl.checks {
		var got any
		var err error
		if c.sweep != nil {
			var res core.Result
			if res, err = core.Run(*c.sweep); err == nil {
				// Fold exactly as the daemon does for a one-cell grid.
				pts := core.FoldSweep([]int{c.sweep.Nodes}, []core.Protocol{c.sweep.Protocol}, 1,
					[]exp.Outcome[core.Result]{{Value: res}})
				got = pts[0].Result
			}
		} else {
			got, err = lbs.Run(*c.lbs)
		}
		if err != nil {
			cl.w.fail("%s: direct run: %v", c.what, err)
			continue
		}
		if d, err := digestOf(got); err != nil || d != c.digest {
			cl.w.fail("%s: served result differs from a direct run", c.what)
		}
	}
	cl.checks = nil
}

// runServe is the serve workload; see the comment at the top.
func runServe(p params, d time.Duration) (*window, error) {
	dir, err := os.MkdirTemp("", "perfbench-serve-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	tr := &http.Transport{MaxIdleConnsPerHost: 2 * serveClients}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}
	clients := make([]*client, serveClients)
	for i := range clients {
		clients[i] = &client{id: i, seed: p.seed, http: hc}
	}
	// runAll runs every client up to operation last.
	runAll := func(url string, last int) {
		var wg sync.WaitGroup
		for _, cl := range clients {
			wg.Add(1)
			go func(cl *client) {
				defer wg.Done()
				for cl.next < last {
					cl.step(url)
				}
			}(cl)
		}
		wg.Wait()
	}

	// The prefill, on a durable daemon; its counters give the cache
	// hit ratio.
	dm, err := startDaemon(dir)
	if err != nil {
		return nil, err
	}
	for _, cl := range clients {
		cl.durable = true
	}
	runAll(dm.url, servePrefill*serveCycle)
	prefill, err := scrape(hc, dm.url)
	if err := errors.Join(err, dm.stop()); err != nil {
		return nil, fmt.Errorf("serve: prefill: %w", err)
	}
	wal := filepath.Join(dir, "journal", "jobs.wal")
	journal, err := os.ReadFile(wal)
	if err != nil {
		return nil, err
	}

	// Restart serveRestarts times on what the prefill left behind.
	w := &window{layer: map[string]float64{}}
	var replays []float64
	for i := 0; i < serveRestarts; i++ {
		if err := os.WriteFile(wal, journal, 0o644); err != nil {
			return nil, err
		}
		start := time.Now()
		if dm, err = startDaemon(dir); err != nil {
			return nil, err
		}
		if err := waitReady(hc, dm.url); err != nil {
			return nil, errors.Join(err, dm.stop())
		}
		w.setups = append(w.setups, time.Since(start).Seconds())
		m, err := scrape(hc, dm.url)
		if err := errors.Join(err, dm.stop()); err != nil {
			return nil, err
		}
		replays = append(replays, m["agrsimd_journal_replay_seconds"])
	}
	for _, cl := range clients {
		cl.results, cl.durable = nil, false
	}

	// The measured window, in segments (see the comment at the top).
	counters := map[string]float64{}
	ops := serveCycle * max(1, int(d.Seconds()*serveOpsPerS/serveCycle+0.5))
	last := servePrefill*serveCycle + ops
	segment := func() error {
		dm, err := startDaemon("")
		if err != nil {
			return err
		}
		before, err := scrape(hc, dm.url)
		if err != nil {
			return errors.Join(err, dm.stop())
		}
		start := time.Now()
		runAll(dm.url, min(last, clients[0].next+serveSegment*serveCycle))
		w.wall += time.Since(start).Seconds()
		after, err := scrape(hc, dm.url)
		if err := errors.Join(err, dm.stop()); err != nil {
			return err
		}
		for k, v := range after {
			counters[k] += v - before[k]
		}
		return nil
	}
	p.measured(func() {
		for err == nil && clients[0].next < last {
			err = segment()
		}
	})
	if err != nil {
		return nil, err
	}

	// Compare the served results with direct runs, one client per
	// goroutine; this is not timed.
	var wg sync.WaitGroup
	for _, cl := range clients {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			cl.verify()
		}(cl)
	}
	wg.Wait()

	var admits, waits, cellWalls []float64
	var truncated float64
	ms := func(t time.Duration) float64 { return float64(t) / float64(time.Millisecond) }
	for _, cl := range clients {
		for _, r := range cl.results {
			w.work++
			w.latencies = append(w.latencies, ms(r.latency))
			if r.truncated {
				truncated++
			}
			admits = append(admits, ms(r.admit))
			if r.created {
				waits = append(waits, ms(r.queueWait))
			}
			for _, cw := range r.cellWalls {
				cellWalls = append(cellWalls, ms(cw))
			}
		}
		w.attempted += cl.w.attempted
		w.failed += cl.w.failed
		w.problems = append(w.problems, cl.w.problems...)
	}
	executed := prefill[`agrsimd_cells_total{outcome="executed"}`]
	cached := prefill[`agrsimd_cells_total{outcome="cached"}`]
	deduped := counters["agrsimd_jobs_deduped_total"]
	l := w.layer
	l["serve.admit_ms_p50"] = percentile(admits, 50)
	l["serve.queue_wait_ms_p50"] = percentile(waits, 50)
	l["serve.dedupe_ratio"] = ratio(deduped, deduped+counters["agrsimd_jobs_submitted_total"])
	l["exp.cell_wall_ms_p50"] = percentile(cellWalls, 50)
	l["exp.cache_hit_ratio"] = ratio(cached, cached+executed)
	l["durable.replay_s"] = percentile(replays, 50)
	l["serve.truncated_streams"] = ratio(truncated, w.work)
	return w, nil
}

// waitReady polls /readyz until the daemon answers 200.
func waitReady(c *http.Client, url string) error {
	deadline := time.Now().Add(serveStopAfter)
	for {
		resp, err := c.Get(url + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("serve: daemon not ready after %v (%v)", serveStopAfter, err)
		}
		time.Sleep(time.Millisecond)
	}
}
