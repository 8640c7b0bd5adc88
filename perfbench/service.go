package main

import (
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
	"runtime"
	"time"

	"ctcp/internal/isa"
	"ctcp/internal/pipeline"
	"ctcp/internal/serve"
	"ctcp/internal/workload"
)

// The service workload's request mix: every kernel under four strategies at
// three budgets a little apart, so each request is a distinct fingerprint.
var (
	serviceConfigs = []string{"base", "issue4", "friendly", "fdrt"}
	serviceBudgets = []uint64{20_000, 20_100, 20_200}
)

// serviceResubmits is how often the hit phase resubmits each fingerprint:
// the first is a store read and the second is answered from the job index,
// the least that exercises both hit paths.
const serviceResubmits = 2

// serviceWorkload runs an in-process ctcpd (serve.New behind an HTTP
// listener on loopback) with one worker and one closed-loop client. Each
// iteration submits every distinct request cold against an empty store,
// restarts the server on that store, and resubmits them in a seeded order.
type serviceWorkload struct {
	reqs  []serve.Request
	progs map[string]*isa.Program // by "bench/budget"
	srv   *ctcpd                  // set-up's server, used by the first iteration

	client *http.Client
	stores int

	last *servicePass
}

// servicePass keeps what the per-layer metrics read from a traced
// iteration.
type servicePass struct {
	coldPhase, hitPhase       [2]promSample // scrapes before and after
	cold, storeHit, indexHit  []float64
	coldWall                  time.Duration
	coldWallMs                []float64 // cold latencies on the wall clock
	respBytes                 int
	familyNs                  map[string]float64
	familyCycles              map[string]uint64
	counts                    simCounts
	heapBefore, heapAfterCold float64
}

// ctcpd is one running server: the service plus its HTTP front end.
type ctcpd struct {
	svc     *serve.Server
	hs      *http.Server
	url     string
	done    chan error
	store   string
	stopped bool
}

func startCtcpd(store string) (*ctcpd, error) {
	svc, err := serve.New(serve.Config{Store: store, Workers: 1})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = svc.Shutdown(context.Background()) // the listen error is the one to report
		return nil, err
	}
	c := &ctcpd{svc: svc, hs: &http.Server{Handler: svc}, url: "http://" + ln.Addr().String(), done: make(chan error, 1), store: store}
	go func() { c.done <- c.hs.Serve(ln) }()
	return c, nil
}

// stop closes the listener, waits for the serving goroutine to return, and
// drains the service. Later calls do nothing.
func (c *ctcpd) stop() error {
	if c.stopped {
		return nil
	}
	c.stopped = true
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := c.hs.Shutdown(ctx)
	if serr := <-c.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := c.svc.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// release stops c if it still runs and deletes its store. It reports
// failures on stderr: it runs on paths that already return another error,
// or once the measurement is complete.
func (c *ctcpd) release() {
	if err := c.stop(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: stopping ctcpd: %v\n", err)
	}
	if err := os.RemoveAll(c.store); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: removing the scratch store: %v\n", err)
	}
}

func (s *serviceWorkload) newStore(e *env) string {
	s.stores++
	return filepath.Join(e.out, "stores", fmt.Sprintf("%d-%d", os.Getpid(), s.stores))
}

func (s *serviceWorkload) setup(e *env) (time.Duration, error) {
	start := cpuNow()
	s.progs = make(map[string]*isa.Program)
	s.reqs = nil
	for _, bm := range workload.All() {
		for _, b := range serviceBudgets {
			s.progs[fmt.Sprintf("%s/%d", bm.Name, b)] = bm.ProgramFor(b)
			for _, c := range serviceConfigs {
				s.reqs = append(s.reqs, serve.Request{Benchmark: bm.Name, Config: c, Budget: b})
			}
		}
	}
	programs := cpuSince(start)
	srv, err := startCtcpd(s.newStore(e))
	if err != nil {
		return 0, err
	}
	s.srv = srv
	s.client = &http.Client{Timeout: 2 * time.Minute, Transport: &http.Transport{
		MaxIdleConnsPerHost: 2, DisableCompression: true, IdleConnTimeout: time.Minute,
	}}
	return programs, nil
}

func (s *serviceWorkload) close() {
	if s.srv != nil {
		s.srv.release()
		s.srv = nil
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
}

// jobResp is the part of ctcpd's job view the client reads; the stats stay
// raw so cold and hit answers can be compared byte for byte.
type jobResp struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Error  string          `json:"error"`
	Stats  json.RawMessage `json:"stats"`
}

func (s *serviceWorkload) do(req *http.Request) (int, *jobResp, int, error) {
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, 0, err
	}
	var jr jobResp
	if err := json.Unmarshal(body, &jr); err != nil {
		return resp.StatusCode, nil, len(body), fmt.Errorf("decoding job view: %w", err)
	}
	return resp.StatusCode, &jr, len(body), nil
}

func (s *serviceWorkload) submit(c *ctcpd, r serve.Request) (int, *jobResp, int, error) {
	payload, err := json.Marshal(r)
	if err != nil {
		return 0, nil, 0, err
	}
	req, err := http.NewRequest(http.MethodPost, c.url+"/api/v1/jobs", bytes.NewReader(payload))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	return s.do(req)
}

func (s *serviceWorkload) wait(c *ctcpd, id string) (*jobResp, error) {
	req, err := http.NewRequest(http.MethodGet, c.url+"/api/v1/jobs/"+id+"?wait=60s", nil)
	if err != nil {
		return nil, err
	}
	_, jr, _, err := s.do(req)
	return jr, err
}

func (s *serviceWorkload) scrape(c *ctcpd) (promSample, error) {
	resp, err := s.client.Get(c.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseProm(string(body))
}

func (s *serviceWorkload) iterate(e *env) (*iteration, error) {
	heapBefore := liveHeapMB()
	first := s.srv
	s.srv = nil
	if first == nil {
		var err error
		if first, err = startCtcpd(s.newStore(e)); err != nil {
			return nil, err
		}
	}
	defer first.release()
	pass := &servicePass{heapBefore: heapBefore, familyNs: map[string]float64{}, familyCycles: map[string]uint64{}}

	// Cold phase: every distinct request once, in a seeded order.
	coldStats := make([]json.RawMessage, len(s.reqs))
	parts := make(map[string]time.Duration, len(s.reqs)+1)
	var simInsts uint64
	var err error
	if pass.coldPhase[0], err = s.scrape(first); err != nil {
		return nil, err
	}
	start, startCPU := time.Now(), cpuNow()
	for _, idx := range e.rng.Perm(len(s.reqs)) {
		r := s.reqs[idx]
		id := e.tr.begin(0, "serve", fmt.Sprintf("cold %s/%s/%d", r.Benchmark, r.Config, r.Budget))
		t, tWall := cpuNow(), time.Now()
		code, jr, _, err := s.submit(first, r)
		if err == nil && code == http.StatusAccepted && jr.Status != serve.StatusDone {
			jr, err = s.wait(first, jr.ID)
		}
		lat, latWall := cpuSince(t), time.Since(tWall)
		e.tr.end(id, nil)
		parts[fmt.Sprint(idx)] = lat
		if !e.check(err == nil && (code == http.StatusAccepted) && jr.Status == serve.StatusDone && len(jr.Stats) > 0,
			"service: cold %s/%s/%d: code %d err %v job %+v", r.Benchmark, r.Config, r.Budget, code, err, jr) {
			continue
		}
		coldStats[idx] = jr.Stats
		simInsts += r.Budget
		ms := float64(lat.Nanoseconds()) / 1e6
		pass.cold = append(pass.cold, ms)
		pass.coldWallMs = append(pass.coldWallMs, float64(latWall.Nanoseconds())/1e6)
		if e.tr != nil {
			var st pipeline.Stats
			if err := json.Unmarshal(jr.Stats, &st); err != nil {
				return nil, fmt.Errorf("service: decoding stats: %w", err)
			}
			f := family(r.Config)
			pass.familyNs[f] += float64(lat.Nanoseconds())
			pass.familyCycles[f] += uint64(st.Cycles)
			pass.counts.add(&st)
		}
	}
	pass.coldWall = time.Since(start)
	rest := cpuSince(startCPU)
	for _, d := range parts {
		rest -= d
	}
	parts["client"] = rest
	if pass.coldPhase[1], err = s.scrape(first); err != nil {
		return nil, err
	}
	started, err := delta(pass.coldPhase[0], pass.coldPhase[1], "ctcpd_runner_started_total")
	if err != nil {
		return nil, err
	}
	e.check(int(started) == len(s.reqs), "service: %v simulations started for %d distinct fingerprints", started, len(s.reqs))
	pass.heapAfterCold = liveHeapMB()

	// Restart on the same store.
	id := e.tr.begin(0, "serve", "restart")
	if err := first.stop(); err != nil {
		return nil, fmt.Errorf("stopping ctcpd: %w", err)
	}
	s.client.CloseIdleConnections()
	second, err := startCtcpd(first.store)
	e.tr.end(id, nil)
	if err != nil {
		return nil, err
	}
	defer second.release()

	// Hit phase: each fingerprint serviceResubmits times, seeded order.
	order := make([]int, 0, serviceResubmits*len(s.reqs))
	for i := 0; i < serviceResubmits; i++ {
		for idx := range s.reqs {
			order = append(order, idx)
		}
	}
	e.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	seen := make([]bool, len(s.reqs))
	hits := make([]float64, 0, len(order))
	if pass.hitPhase[0], err = s.scrape(second); err != nil {
		return nil, err
	}
	for _, idx := range order {
		r := s.reqs[idx]
		kind := "index hit"
		if !seen[idx] {
			kind = "store hit"
		}
		id := e.tr.begin(0, "serve", kind)
		t := cpuNow()
		code, jr, n, err := s.submit(second, r)
		lat := cpuSince(t)
		e.tr.end(id, nil)
		ms := float64(lat.Nanoseconds()) / 1e6
		hits = append(hits, ms)
		if !seen[idx] {
			pass.storeHit = append(pass.storeHit, ms)
		} else {
			pass.indexHit = append(pass.indexHit, ms)
		}
		seen[idx] = true
		pass.respBytes += n
		e.check(err == nil && code == http.StatusOK && jr.Status == serve.StatusDone && coldStats[idx] != nil &&
			bytes.Equal(jr.Stats, coldStats[idx]),
			"service: hit %s/%s/%d: code %d err %v, stats identical to the cold result: %v",
			r.Benchmark, r.Config, r.Budget, code, err, jr != nil && bytes.Equal(jr.Stats, coldStats[idx]))
	}
	if pass.hitPhase[1], err = s.scrape(second); err != nil {
		return nil, err
	}
	resim, err := delta(pass.hitPhase[0], pass.hitPhase[1], "ctcpd_runner_started_total")
	if err != nil {
		return nil, err
	}
	e.check(resim == 0, "service: %v simulations started during the hit phase", resim)
	if err := second.stop(); err != nil {
		return nil, fmt.Errorf("stopping ctcpd: %w", err)
	}
	s.client.CloseIdleConnections()

	heap := liveHeapMB()
	runtime.KeepAlive(first)
	runtime.KeepAlive(second)
	if e.tr != nil {
		s.last = pass
	}
	return &iteration{insts: simInsts, parts: parts, wall: pass.coldWall, heapMB: heap, cold: pass.cold, hit: hits}, nil
}

func (s *serviceWorkload) layers(e *env, m metrics) error {
	pass := s.last
	if pass == nil {
		return fmt.Errorf("service: no traced iteration")
	}
	cd := func(name string) float64 {
		v, err := delta(pass.coldPhase[0], pass.coldPhase[1], name)
		if err != nil {
			e.check(false, "service: %v", err)
		}
		return v
	}
	hd := func(name string) float64 {
		v, err := delta(pass.hitPhase[0], pass.hitPhase[1], name)
		if err != nil {
			e.check(false, "service: %v", err)
		}
		return v
	}
	queueMs := 1000 * cd("ctcpd_queue_wait_seconds_total") / cd("ctcpd_queue_wait_count_total")
	simS := cd("ctcpd_sim_seconds_total")
	simMs := 1000 * simS / cd("ctcpd_sim_count_total")
	// The server's figures are wall-clock, so the overhead is taken from
	// the client's wall-clock latencies.
	var coldMean float64
	for _, v := range pass.coldWallMs {
		coldMean += v
	}
	coldMean /= float64(len(pass.coldWallMs))
	m.set("serve.queue_wait_ms", queueMs)
	m.set("serve.sim_ms", simMs)
	m.set("serve.overhead_ms", coldMean-queueMs-simMs)
	m.set("serve.store_hit_ms", median(pass.storeHit))
	m.set("serve.index_hit_ms", median(pass.indexHit))
	m.set("serve.hit_response_kb", float64(pass.respBytes)/float64(len(pass.storeHit)+len(pass.indexHit))/1024)
	m.set("serve.store_reads_hit", hd("ctcpd_store_reads_hit_total"))
	started := cd("ctcpd_runner_started_total")
	m.set("serve.runner_started", started)
	cacheHits := cd("ctcpd_runner_cache_hits_total") + hd("ctcpd_runner_cache_hits_total")
	m.set("experiment.sims", started)
	m.set("experiment.cache_hits", cacheHits)
	m.set("experiment.hit_ratio", cacheHits/(cacheHits+started))
	m.set("experiment.sim_s", simS)
	m.set("experiment.overhead_s", pass.coldWall.Seconds()-simS)
	for _, f := range families {
		if pass.familyCycles[f] > 0 {
			m.set("pipeline.ns_per_cycle."+f, pass.familyNs[f]/float64(pass.familyCycles[f]))
		}
	}
	m.set("pipeline.retained_kb_per_result", (pass.heapAfterCold-pass.heapBefore)*1024/float64(len(pass.cold)))
	pass.counts.report(m)

	runs := make([]emuRun, 0, len(s.reqs))
	for _, r := range s.reqs {
		run := emuRun{prog: s.progs[fmt.Sprintf("%s/%d", r.Benchmark, r.Budget)], budget: r.Budget}
		if r.Benchmark == "gzip" && r.Config == "fdrt" && r.Budget == serviceBudgets[0] {
			runs = append([]emuRun{run}, runs...)
		} else {
			runs = append(runs, run)
		}
	}
	return probeCommon(e, m, runs, fdrtConfig())
}
