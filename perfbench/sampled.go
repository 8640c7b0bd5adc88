package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"ctcp/internal/experiment"
	"ctcp/internal/isa"
	"ctcp/internal/pipeline"
	"ctcp/internal/sample"
	"ctcp/internal/workload"
)

// The sampled-long schedule: 20M instructions per kernel, a detailed window
// of 20k instructions (5k of them warm-up) every 1M.
const (
	sampledBudget   = 20_000_000
	sampledInterval = 1_000_000
	sampledDetail   = 20_000
	sampledWarmup   = 5_000
)

// sampledKernels are gzip, mcf (cache-hostile) and eon.
var sampledKernels = []string{"gzip", "mcf", "eon"}

// expectedFile holds the sampled-long results the benchmark checks against,
// regenerated with -update-expected the way `make results` regenerates
// results_full.txt.
const expectedFile = "perfbench/expected_sampled.json"

// sampledExpect is the expected-results file.
type sampledExpect struct {
	Budget   uint64                   `json:"budget"`
	Interval uint64                   `json:"interval"`
	Detail   uint64                   `json:"detail"`
	Warmup   uint64                   `json:"warmup"`
	Config   string                   `json:"config"`
	Kernels  map[string]sampledKernel `json:"kernels"`
}

type sampledKernel struct {
	TotalInsts uint64 `json:"total_insts"`
	EstCycles  int64  `json:"est_cycles"`
	IPC        string `json:"ipc"`
}

func (k sampledKernel) matches(s *pipeline.Stats) bool {
	return s.Retired == k.TotalInsts && s.Cycles == k.EstCycles && fmt.Sprintf("%.6f", s.IPC()) == k.IPC
}

// sampledWorkload runs the three kernels through a serial Runner in sampled
// mode (sample.Run with one worker).
type sampledWorkload struct {
	expect sampledExpect
	bms    []workload.Benchmark
	progs  []*isa.Program

	mu     sync.Mutex
	tr     *tracer
	parent int
	lastEv map[string]runStart
	cold   []float64

	last *sampledPass
}

type sampledPass struct {
	stats       experiment.RunnerStats
	wall        time.Duration
	heapBefore  float64
	heapWithRes float64
}

func (s *sampledWorkload) setup(e *env) (time.Duration, error) {
	start := cpuNow()
	s.bms, s.progs = nil, nil
	for _, name := range sampledKernels {
		bm, ok := workload.ByName(name)
		if !ok {
			return 0, fmt.Errorf("sampled-long: no kernel %s", name)
		}
		s.bms = append(s.bms, bm)
		s.progs = append(s.progs, bm.ProgramFor(sampledBudget))
	}
	return cpuSince(start), nil
}

func (s *sampledWorkload) close() {}

func (s *sampledWorkload) newRunner() *experiment.Runner {
	return experiment.NewRunner(experiment.Options{
		Budget:         sampledBudget,
		Parallelism:    1,
		SampleInterval: sampledInterval,
		SampleDetail:   sampledDetail,
		SampleWarmup:   sampledWarmup,
		SampleWorkers:  1,
		Progress:       s.progress,
	})
}

// progress times detailed windows. With one sample worker the regions
// complete in schedule order, so the gap between two region events is one
// window; the first event also covers the functional forward pass and the
// whole-interval region 0, so it is not a window sample.
func (s *sampledWorkload) progress(ev experiment.ProgressEvent) {
	if ev.Kind != experiment.RunRegion {
		return
	}
	now := runStart{time.Now(), cpuNow()}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.lastEv[ev.Key]; ok {
		s.cold = append(s.cold, float64((now.cpu-prev.cpu).Nanoseconds())/1e6)
		s.tr.add(s.parent, "sample", fmt.Sprintf("region %d", ev.Done-1), prev.wall, now.wall, nil)
	}
	s.lastEv[ev.Key] = now
}

func loadExpected(root string) (sampledExpect, error) {
	var ex sampledExpect
	data, err := os.ReadFile(filepath.Join(root, expectedFile))
	if err != nil {
		return ex, fmt.Errorf("reading expected results: %w", err)
	}
	if err := json.Unmarshal(data, &ex); err != nil {
		return ex, fmt.Errorf("parsing %s: %w", expectedFile, err)
	}
	if ex.Budget != sampledBudget || ex.Interval != sampledInterval || ex.Detail != sampledDetail ||
		ex.Warmup != sampledWarmup || ex.Config != "fdrt" {
		return ex, fmt.Errorf("%s was made for another schedule; regenerate it with -update-expected", expectedFile)
	}
	return ex, nil
}

func (s *sampledWorkload) iterate(e *env) (*iteration, error) {
	if s.expect.Kernels == nil {
		ex, err := loadExpected(e.root)
		if err != nil {
			return nil, err
		}
		s.expect = ex
	}
	cfg := fdrtConfig()
	heapBefore := liveHeapMB()
	r := s.newRunner()
	s.mu.Lock()
	s.tr, s.cold, s.lastEv = e.tr, nil, make(map[string]runStart)
	s.mu.Unlock()

	parts := make(map[string]time.Duration, len(s.bms))
	start := time.Now()
	for _, bm := range s.bms {
		id := e.tr.begin(0, "experiment", "run sampled "+bm.Name+"/fdrt")
		s.mu.Lock()
		s.parent = id
		s.mu.Unlock()
		t := cpuNow()
		st, err := r.RunErr(bm, "fdrt", cfg)
		parts[bm.Name] = cpuSince(t)
		e.tr.end(id, nil)
		if !e.check(err == nil, "sampled-long: %s failed: %v", bm.Name, err) {
			continue
		}
		want, ok := s.expect.Kernels[bm.Name]
		e.check(ok && want.matches(st), "sampled-long: %s estimate %d insts / %d cycles (IPC %.6f), want %+v",
			bm.Name, st.Retired, st.Cycles, st.IPC(), want)
	}
	wall := time.Since(start)
	st := r.Stats()

	heap := liveHeapMB() // with the runner, and so the results, held
	runtime.KeepAlive(r)
	s.mu.Lock()
	cold := s.cold
	s.mu.Unlock()
	if e.tr != nil {
		s.last = &sampledPass{stats: st, wall: wall, heapBefore: heapBefore, heapWithRes: heap}
	}
	return &iteration{insts: uint64(len(s.bms)) * sampledBudget, parts: parts, wall: wall, heapMB: heap, cold: cold}, nil
}

func (s *sampledWorkload) layers(e *env, m metrics) error {
	pass := s.last
	if pass == nil {
		return fmt.Errorf("sampled-long: no traced iteration")
	}
	st := pass.stats
	var simWall time.Duration
	for _, d := range st.Wall {
		simWall += d
	}
	m.set("experiment.sims", float64(st.Started))
	m.set("experiment.cache_hits", float64(st.CacheHits))
	m.set("experiment.hit_ratio", ratioOf(st.CacheHits, st.CacheHits+st.Started))
	m.set("experiment.sim_s", simWall.Seconds())
	m.set("experiment.overhead_s", (pass.wall - simWall).Seconds())
	m.set("pipeline.retained_kb_per_result", (pass.heapWithRes-pass.heapBefore)*1024/float64(len(s.bms)))

	// sample.Run directly, for what the runner's merged Stats folds away:
	// the region schedule and the detailed share.
	cfg := fdrtConfig()
	var counts simCounts
	var regions int
	var detailed, total uint64
	var detailedCycles int64
	var runs []emuRun
	for i, bm := range s.bms {
		id := e.tr.begin(0, "sample", "probe sample.Run "+bm.Name)
		res, err := sample.Run(s.progs[i], cfg, sample.Options{
			Interval: sampledInterval, Detail: sampledDetail, Warmup: sampledWarmup,
			Workers: 1, MaxInsts: sampledBudget,
		})
		e.tr.end(id, nil)
		if err != nil {
			return fmt.Errorf("sampled-long probe: %w", err)
		}
		want := s.expect.Kernels[bm.Name]
		e.check(res.TotalInsts == want.TotalInsts && int64(res.EstimatedCycles+0.5) == want.EstCycles,
			"sampled-long: direct sample.Run of %s disagrees with the runner's estimate", bm.Name)
		regions += len(res.Regions)
		detailed += res.DetailedInsts
		total += res.TotalInsts
		detailedCycles += res.DetailedCycles
		counts.add(&res.Stats)
		runs = append(runs, emuRun{prog: s.progs[i], budget: sampledBudget})
	}
	m.set("sample.regions", float64(regions))
	m.set("sample.detailed_frac", ratioOf(detailed, total))
	m.set("pipeline.ns_per_cycle.fdrt", float64(simWall.Nanoseconds())/float64(detailedCycles))
	counts.report(m)
	return probeCommon(e, m, runs, cfg)
}

// updateExpected regenerates the expected sampled-long results.
func updateExpected(e *env) error {
	if e.workload != "sampled-long" {
		return fmt.Errorf("-update-expected applies to the sampled-long workload only")
	}
	s := &sampledWorkload{lastEv: make(map[string]runStart)}
	if _, err := s.setup(e); err != nil {
		return err
	}
	ex := sampledExpect{Budget: sampledBudget, Interval: sampledInterval, Detail: sampledDetail,
		Warmup: sampledWarmup, Config: "fdrt", Kernels: make(map[string]sampledKernel)}
	r := s.newRunner()
	for _, bm := range s.bms {
		st, err := r.RunErr(bm, "fdrt", fdrtConfig())
		if err != nil {
			return fmt.Errorf("%s: %w", bm.Name, err)
		}
		ex.Kernels[bm.Name] = sampledKernel{TotalInsts: st.Retired, EstCycles: st.Cycles, IPC: fmt.Sprintf("%.6f", st.IPC())}
	}
	data, err := json.MarshalIndent(ex, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(e.root, expectedFile)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
