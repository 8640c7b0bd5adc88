// Command perfbench is the repository's end-to-end benchmark. It drives the
// simulator through the public functions of its packages, one simulation at
// a time, on three workloads (see README.md):
//
//	paper-selected  the paper's evaluation artifacts on a serial Runner
//	sampled-long    long sampled runs whose detailed windows start cold
//	service         an in-process ctcpd with one closed-loop client
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload paper-selected --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload service --seed 1 --seconds 30 --trace 1
//	bash perfbench/run.sh --spread-runs 10 --seconds 30
//	bash perfbench/run.sh --workload sampled-long --update-expected
//
// With --trace 0 the last line of standard output is one JSON object holding
// every end-to-end metric; with --trace 1 it holds every per-layer metric,
// and a Chrome trace-event file of the run's spans is written to the output
// directory. Every run checks the simulator's outputs and counts failed
// checks against attempted ones.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// setupSamples is how many times a run measures set-up: once in the process
// itself and setupSamples-1 times in fresh child processes (set-up memoizes
// process-wide, so only a new process pays it again). setup_s is the median.
const setupSamples = 41

// benchWorkload is one benchmark workload.
type benchWorkload interface {
	// setup builds the programs and opens the runner or server: the work
	// before the first timed operation. It returns the time spent building
	// programs.
	setup(e *env) (programs time.Duration, err error)
	// iterate runs one timed iteration.
	iterate(e *env) (*iteration, error)
	// layers runs the per-layer probes after a traced pass and fills m.
	layers(e *env, m metrics) error
	// close releases what setup opened.
	close()
}

// iteration is one timed pass over a workload.
type iteration struct {
	insts uint64 // simulated instructions the pass stands for
	// parts splits the CPU time of the simulating phase into the same named
	// parts on every iteration (one per simulation, plus what lies between
	// them), so throughput can take each part's median.
	parts  map[string]time.Duration
	wall   time.Duration // wall time of the simulating phase
	heapMB float64       // live heap at the end, results still held
	cold   []float64     // ms per request that simulated from cold state
	hit    []float64     // ms per request answered from stored results (service)
}

func newWorkload(name string) (benchWorkload, error) {
	switch name {
	case "paper-selected":
		return &paperWorkload{}, nil
	case "sampled-long":
		return &sampledWorkload{}, nil
	case "service":
		return &serviceWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (paper-selected, sampled-long, service)", name)
}

// env is the state shared by a run's phases.
type env struct {
	root, out string
	workload  string
	seed      int64
	rng       *rand.Rand
	tr        *tracer // nil outside the traced pass
	traced    bool    // the run reports per-layer metrics

	attempted, failed int

	// untracedCPU is the simulating phase's CPU time in the untraced pass
	// (robustTime), the base of the emu.ff_share ratio.
	untracedCPU  time.Duration
	setupProgram []float64 // ms per set-up sample spent building programs
	// passes summarizes each timed pass ("untraced", "traced").
	passes map[string]passSummary
}

// passSummary records what a pass's end-to-end metrics rest on, and the
// latency percentiles it reports as per-layer metrics.
type passSummary struct {
	Iterations int
	Setups     int
	Cold       int
	Hit        int
	// Groups is how many sample groups each percentile is the median of.
	Groups map[string]int
	// Latency holds cold_ms_p90 and, on service, hit_ms_p50 and hit_ms_p99.
	Latency map[string]float64
}

// check counts one verified output; a failure is reported on stderr.
func (e *env) check(ok bool, format string, args ...any) bool {
	e.attempted++
	if !ok {
		e.failed++
		if e.failed <= 20 {
			fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
		}
	}
	return ok
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		wl         = flag.String("workload", "", "workload to run: paper-selected, sampled-long or service")
		seed       = flag.Int64("seed", 1, "seed of the generated request order")
		seconds    = flag.Int("seconds", 30, "seconds to measure")
		traceFlag  = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		root       = flag.String("root", ".", "repository root")
		out        = flag.String("out", ".bench_build", "directory for results, traces and scratch stores")
		setupChild = flag.Bool("setup-child", false, "measure one set-up in this process and exit (internal)")
		updateExp  = flag.Bool("update-expected", false, "rewrite the expected sampled-long results instead of checking them")
		spreadRuns = flag.Int("spread-runs", 0, "run every workload this many times with distinct seeds and report the spread of each metric")
	)
	flag.Parse()
	if err := run(*wl, *seed, *seconds, *traceFlag, *root, *out, *setupChild, *updateExp, *spreadRuns); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(wlName string, seed int64, seconds, traceFlag int, root, out string, setupChild, updateExp bool, spreadRuns int) error {
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	if !filepath.IsAbs(out) {
		out = filepath.Join(root, out)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return fmt.Errorf("creating output directory: %w", err)
	}
	if spreadRuns > 0 {
		return spreadReport(root, out, spreadRuns, seconds)
	}
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	w, err := newWorkload(wlName)
	if err != nil {
		return err
	}
	e := &env{root: root, out: out, workload: wlName, seed: seed, rng: rand.New(rand.NewSource(seed)), traced: traceFlag == 1,
		passes: make(map[string]passSummary)}
	if setupChild {
		return runSetupChild(e, w)
	}
	if updateExp {
		return updateExpected(e)
	}
	hostLine, _ := json.Marshal(probeHost(root)) // plain struct of strings and ints
	fmt.Printf("perfbench: workload %s seed %d seconds %d trace %d\n", wlName, seed, seconds, traceFlag)
	fmt.Printf("host: %s\n", hostLine)

	res, err := measure(e, w, time.Duration(seconds)*time.Second)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// measure runs set-up, the timed iterations and, for a traced run, the
// traced pass and per-layer probes.
func measure(e *env, w benchWorkload, budget time.Duration) (*result, error) {
	setupS, err := measureSetup(e, w)
	if err != nil {
		return nil, err
	}
	defer w.close()
	if !e.traced {
		iters, err := loop(e, w, budget)
		if err != nil {
			return nil, err
		}
		m, err := endToEnd(e, "untraced", setupS, iters)
		if err != nil {
			return nil, err
		}
		return finish(e, m), nil
	}

	// Traced run: half the budget untraced, half traced, then probes. The
	// difference between the two halves' end-to-end figures is the
	// tracing overhead.
	plain, err := loop(e, w, budget/2)
	if err != nil {
		return nil, err
	}
	e.untracedCPU = robustTime(plain)
	base, err := endToEnd(e, "untraced", setupS, plain)
	if err != nil {
		return nil, err
	}
	e.tr = newTracer(fmt.Sprintf("%s-seed%d-%d", e.workload, e.seed, time.Now().UnixNano()))
	tracedIters, err := loop(e, w, budget/2)
	if err != nil {
		return nil, err
	}
	withSpans, err := endToEnd(e, "traced", setupS, tracedIters)
	if err != nil {
		return nil, err
	}
	m := newLayerMetrics()
	if err := w.layers(e, m); err != nil {
		return nil, err
	}
	m.set("workload.program_ms", median(e.setupProgram))
	for _, d := range endToEndMetrics {
		if d.name == "setup_s" {
			continue
		}
		cost := withSpans[d.name].Value - base[d.name].Value
		if d.higherIsBetter {
			cost = -cost
		}
		m.set("tracing.overhead."+d.name, cost)
	}
	for name, v := range e.passes["untraced"].Latency {
		m.set("latency."+name, v)
	}
	meta := map[string]any{"workload": e.workload, "seed": e.seed, "run_id": e.tr.runID}
	tracePath := filepath.Join(e.out, fmt.Sprintf("trace-%s-seed%d.json", e.workload, e.seed))
	if err := e.tr.writeChrome(tracePath, meta); err != nil {
		return nil, err
	}
	fmt.Printf("trace: %s (%d spans)\n", tracePath, len(e.tr.spans))
	return finish(e, m.out()), nil
}

func finish(e *env, m map[string]metric) *result {
	return &result{Correct: e.failed == 0, Attempted: e.attempted, Failed: e.failed, Metrics: m}
}

// loop runs iterations while another one of average length still fits in
// the budget, and in any case until every reported percentile has its ten
// samples beyond.
func loop(e *env, w benchWorkload, budget time.Duration) ([]*iteration, error) {
	var iters []*iteration
	var cold, hit int
	start := time.Now()
	fits := func() bool {
		spent := time.Since(start)
		return len(iters) == 0 || spent+spent/time.Duration(len(iters)) <= budget
	}
	for fits() || cold < minSamplesFor(0.90) || (hit > 0 && hit < minSamplesFor(0.99)) {
		it, err := w.iterate(e)
		if err != nil {
			return nil, err
		}
		iters = append(iters, it)
		cold += len(it.cold)
		hit += len(it.hit)
	}
	return iters, nil
}

// robustTime is the CPU time of one iteration with each part taken at its
// median over the iterations: a burst of host noise that slows one part of
// one iteration is set aside instead of slowing the whole iteration.
func robustTime(iters []*iteration) time.Duration {
	byPart := make(map[string][]float64)
	for _, it := range iters {
		for k, d := range it.parts {
			byPart[k] = append(byPart[k], float64(d))
		}
	}
	var sum float64
	for _, ds := range byPart {
		sum += median(ds)
	}
	return time.Duration(sum)
}

// endToEnd folds iterations into the end-to-end metrics: throughput is the
// constant instruction count over robustTime, heap the median over
// iterations, and a latency percentile the median over sample groups.
func endToEnd(e *env, pass string, setupS float64, iters []*iteration) (map[string]metric, error) {
	var insts, heap, cold, hit []float64
	for _, it := range iters {
		insts = append(insts, float64(it.insts))
		heap = append(heap, it.heapMB)
		cold = append(cold, it.cold...)
		hit = append(hit, it.hit...)
	}
	vals := map[string]float64{
		"setup_s":         setupS,
		"sim_minst_per_s": median(insts) / 1e6 / robustTime(iters).Seconds(),
		"heap_live_mb":    median(heap),
	}
	sum := passSummary{Iterations: len(iters), Setups: setupSamples, Cold: len(cold), Hit: len(hit),
		Groups: make(map[string]int), Latency: make(map[string]float64)}
	pct := []struct {
		name    string
		samples []float64
		q       float64
	}{
		{"cold_ms_p50", cold, 0.50}, {"cold_ms_p90", cold, 0.90},
		{"hit_ms_p50", hit, 0.50}, {"hit_ms_p99", hit, 0.99},
	}
	for _, p := range pct {
		if len(p.samples) == 0 {
			continue // only service has hits
		}
		v, n, err := groupedPercentile(p.samples, p.q)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		sum.Groups[p.name] = n
		if p.name == "cold_ms_p50" {
			vals[p.name] = v
		} else {
			sum.Latency[p.name] = v
		}
	}
	e.passes[pass] = sum
	fmt.Printf("samples (%s): %d set-ups, %d iterations, %d cold requests, %d hit requests; percentile groups %v\n",
		pass, sum.Setups, sum.Iterations, sum.Cold, sum.Hit, sum.Groups)
	var wall time.Duration
	for _, it := range iters {
		wall += it.wall
	}
	fmt.Printf("latency (%s, per-layer): %v; wall-clock throughput %.4g Minst/s against %.4g by CPU time\n",
		pass, sum.Latency, median(insts)*float64(len(iters))/1e6/wall.Seconds(), vals["sim_minst_per_s"])
	out := make(map[string]metric, len(endToEndMetrics))
	for _, d := range endToEndMetrics {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return out, nil
}

// measureSetup times set-up (in CPU time) setupSamples times: first in fresh child
// processes, then in this process (whose state the iterations go on to
// use), and returns the median in seconds.
func measureSetup(e *env, w benchWorkload) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var totals []float64
	for i := 1; i < setupSamples; i++ {
		s, prog, err := setupInChild(exe, e)
		if err != nil {
			return 0, fmt.Errorf("set-up child %d: %w", i, err)
		}
		totals = append(totals, s)
		e.setupProgram = append(e.setupProgram, prog)
	}
	start := cpuNow()
	prog, err := w.setup(e)
	total := cpuSince(start)
	if err != nil {
		return 0, fmt.Errorf("set-up: %w", err)
	}
	totals = append(totals, total.Seconds())
	e.setupProgram = append(e.setupProgram, float64(prog.Nanoseconds())/1e6)
	return median(totals), nil
}

// setupReport is what a set-up child prints.
type setupReport struct {
	SetupS    float64 `json:"setup_s"`
	ProgramMs float64 `json:"program_ms"`
}

func runSetupChild(e *env, w benchWorkload) error {
	start := cpuNow()
	prog, err := w.setup(e)
	total := cpuSince(start)
	if err != nil {
		return err
	}
	w.close()
	line, err := json.Marshal(setupReport{SetupS: total.Seconds(), ProgramMs: float64(prog.Nanoseconds()) / 1e6})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func setupInChild(exe string, e *env) (setupS, programMs float64, err error) {
	out, err := runChild(exe, "-setup-child", "-workload", e.workload, "-root", e.root, "-out", e.out,
		"-seed", strconv.FormatInt(e.seed, 10))
	if err != nil {
		return 0, 0, err
	}
	var rep setupReport
	if err := json.Unmarshal(lastLine(out), &rep); err != nil {
		return 0, 0, fmt.Errorf("decoding set-up report: %w", err)
	}
	if rep.SetupS <= 0 {
		return 0, 0, errors.New("set-up report has no time")
	}
	return rep.SetupS, rep.ProgramMs, nil
}
