package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"ctcp/internal/experiment"
	"ctcp/internal/isa"
	"ctcp/internal/pipeline"
	"ctcp/internal/workload"
)

const (
	// paperBudget is results_full.txt's per-run budget.
	paperBudget = 200_000
	// paperRuns is the number of distinct simulations the ten artifacts
	// read. sim_minst_per_s divides the constant paperRuns*paperBudget by
	// wall time, so a change that avoids work counts as a gain.
	paperRuns = 48
)

// renderers regenerates each artifact exactly as cmd/ctcpbench does.
var renderers = map[string]func(*experiment.Runner) string{
	"table1":   func(r *experiment.Runner) string { return experiment.Table1(r).Render() },
	"fig4":     func(r *experiment.Runner) string { return experiment.Figure4(r).Render() },
	"table2":   func(r *experiment.Runner) string { return experiment.Table2(r).Render() },
	"table3":   func(r *experiment.Runner) string { return experiment.Table3(r).Render() },
	"fig6":     func(r *experiment.Runner) string { return experiment.Figure6(r).Render() },
	"table8":   func(r *experiment.Runner) string { return experiment.Table8(r).Render() },
	"fig7":     func(r *experiment.Runner) string { return experiment.Figure7(r).Render() },
	"table9":   func(r *experiment.Runner) string { return experiment.Table9(r).Render() },
	"table10":  func(r *experiment.Runner) string { return experiment.Table10(r).Render() },
	"ablation": func(r *experiment.Runner) string { return experiment.Ablation(r).Render() },
}

// paperWorkload regenerates ten of the paper's artifacts over the six
// selected SPECint kernels on one serial Runner per iteration, as
// cmd/ctcpbench does.
type paperWorkload struct {
	refs   map[string]string
	progs  map[string]*isa.Program
	runner *experiment.Runner // set-up's runner, used by the first iteration

	mu      sync.Mutex
	tr      *tracer
	parent  int // span of the artifact being rendered
	started map[string]runStart
	cold    []float64
	simCPU  map[string]time.Duration // by runner key

	last *paperPass // the most recent traced iteration
}

// paperPass keeps what the per-layer metrics read from a traced iteration.
type paperPass struct {
	stats       experiment.RunnerStats
	runStats    map[string]*pipeline.Stats // by runner key
	wall        time.Duration
	artifact    map[string]time.Duration
	heapBefore  float64
	heapWithRes float64
}

func (p *paperWorkload) setup(e *env) (time.Duration, error) {
	start := cpuNow()
	p.progs = make(map[string]*isa.Program)
	for _, bm := range workload.Selected() {
		p.progs[bm.Name] = bm.ProgramFor(paperBudget)
	}
	programs := cpuSince(start)
	p.runner = p.newRunner()
	return programs, nil
}

func (p *paperWorkload) close() {}

func (p *paperWorkload) newRunner() *experiment.Runner {
	return experiment.NewRunner(experiment.Options{
		Budget:      paperBudget,
		Parallelism: 1,
		Progress:    p.progress,
	})
}

// runStart is when a simulation started, on the wall clock (for its span)
// and the CPU clock.
type runStart struct {
	wall time.Time
	cpu  time.Duration
}

// progress turns runner events into cold-request samples, per-simulation
// CPU times and, when traced, spans under the artifact being rendered.
func (p *paperWorkload) progress(ev experiment.ProgressEvent) {
	switch ev.Kind {
	case experiment.RunStarted:
		p.mu.Lock()
		p.started[ev.Key] = runStart{time.Now(), cpuNow()}
		p.mu.Unlock()
	case experiment.RunCompleted, experiment.RunFailed:
		cpu, now := cpuNow(), time.Now()
		p.mu.Lock()
		defer p.mu.Unlock()
		st := p.started[ev.Key]
		p.cold = append(p.cold, float64((cpu-st.cpu).Nanoseconds())/1e6)
		p.simCPU[ev.Key] = cpu - st.cpu
		p.tr.add(p.parent, "experiment", "simulate "+ev.Key, st.wall, now, nil)
	}
}

func (p *paperWorkload) iterate(e *env) (*iteration, error) {
	if p.refs == nil {
		refs, err := loadReferenceBlocks(filepath.Join(e.root, "results_full.txt"))
		if err != nil {
			return nil, err
		}
		p.refs = refs
	}
	r := p.runner
	p.runner = nil
	if r == nil {
		r = p.newRunner()
	}
	heapBefore := liveHeapMB()
	p.mu.Lock()
	p.tr, p.cold, p.started, p.simCPU = e.tr, nil, make(map[string]runStart), make(map[string]time.Duration)
	p.mu.Unlock()

	artifact := make(map[string]time.Duration, len(artifactNames))
	start, startCPU := time.Now(), cpuNow()
	for _, name := range artifactNames {
		p.render(e, r, name, artifact)
	}
	wall, sweepCPU := time.Since(start), cpuSince(startCPU)
	st := r.Stats()
	e.check(st.Failed == 0, "paper-selected: %d simulations failed:\n%s", st.Failed, r.FailureSummary())
	heap := liveHeapMB() // with the sweep's results held
	runtime.KeepAlive(r)

	// The sweep's CPU time in parts: each simulation, and the rest (memo
	// hits and rendering).
	p.mu.Lock()
	cold := p.cold
	parts := make(map[string]time.Duration, len(p.simCPU)+1)
	rest := sweepCPU
	for k, d := range p.simCPU {
		parts[k] = d
		rest -= d
	}
	parts["render"] = rest
	p.mu.Unlock()
	if e.tr != nil {
		runStats, err := memoizedStats(r, st)
		if err != nil {
			return nil, err
		}
		p.last = &paperPass{stats: st, runStats: runStats, wall: wall, artifact: artifact, heapBefore: heapBefore, heapWithRes: heap}
	}
	return &iteration{insts: paperRuns * paperBudget, parts: parts, wall: wall, heapMB: heap, cold: cold}, nil
}

// render regenerates one artifact, records its wall time in sweep and
// checks it against its block in results_full.txt.
func (p *paperWorkload) render(e *env, r *experiment.Runner, name string, sweep map[string]time.Duration) {
	id := e.tr.begin(0, "experiment", "artifact "+name)
	p.mu.Lock()
	p.parent = id
	p.mu.Unlock()
	start := time.Now()
	out := renderers[name](r)
	sweep[name] = time.Since(start)
	e.tr.end(id, nil)
	ref, ok := p.refs[name]
	e.check(ok && matchesBlock(out, ref), "paper-selected: %s differs from its block in results_full.txt", name)
}

func (p *paperWorkload) layers(e *env, m metrics) error {
	pass := p.last
	if pass == nil {
		return fmt.Errorf("paper-selected: no traced iteration")
	}
	st := pass.stats
	var simWall time.Duration
	famWall := make(map[string]time.Duration)
	famCycles := make(map[string]uint64)
	var counts simCounts
	var runs []emuRun
	for _, key := range sortedKeys(st.Wall) {
		simWall += st.Wall[key]
		bmName, cfgKey, _ := strings.Cut(key, "/")
		s := pass.runStats[key]
		famWall[family(cfgKey)] += st.Wall[key]
		famCycles[family(cfgKey)] += uint64(s.Cycles)
		counts.add(s)
		run := emuRun{prog: p.progs[bmName], budget: paperBudget}
		if key == "gzip/fdrt" {
			runs = append([]emuRun{run}, runs...)
		} else {
			runs = append(runs, run)
		}
	}
	m.set("experiment.sims", float64(st.Started))
	m.set("experiment.cache_hits", float64(st.CacheHits))
	m.set("experiment.hit_ratio", ratioOf(st.CacheHits, st.CacheHits+st.Started))
	m.set("experiment.sim_s", simWall.Seconds())
	var artWall time.Duration
	for name, d := range pass.artifact {
		m.set("experiment.artifact_s."+name, d.Seconds())
		artWall += d
	}
	m.set("experiment.overhead_s", (artWall - simWall).Seconds())
	for _, f := range families {
		m.set("pipeline.ns_per_cycle."+f, float64(famWall[f].Nanoseconds())/float64(famCycles[f]))
	}
	m.set("pipeline.retained_kb_per_result", (pass.heapWithRes-pass.heapBefore)*1024/float64(st.Started))
	counts.report(m)
	return probeCommon(e, m, runs, fdrtConfig())
}

// memoizedStats copies the stats of every finished run out of the runner.
// A finished key is memoized, so RunErr returns its stats without
// simulating (the configuration argument is not consulted). The copies do
// not pin the runs' pipelines, so holding them does not grow the heap the
// next iteration measures.
func memoizedStats(r *experiment.Runner, st experiment.RunnerStats) (map[string]*pipeline.Stats, error) {
	out := make(map[string]*pipeline.Stats, len(st.Wall))
	for key := range st.Wall {
		bmName, cfgKey, _ := strings.Cut(key, "/")
		bm, ok := workload.ByName(bmName)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark in runner key %q", key)
		}
		s, err := r.RunErr(bm, cfgKey, experiment.BaseConfig())
		if err != nil {
			return nil, fmt.Errorf("reading %s: %w", key, err)
		}
		cp := *s
		out[key] = &cp
	}
	return out, nil
}

func fdrtConfig() pipeline.Config { return experiment.StrategyConfigs()["fdrt"] }
