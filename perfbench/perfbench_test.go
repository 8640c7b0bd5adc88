package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"ctcp/internal/experiment"
	"ctcp/internal/serve"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{20, 0.50, 10, true},
		{19, 0.50, 0, false},
		{100, 0.90, 90, true},
		{99, 0.90, 0, false},
		{1000, 0.99, 990, true},
		{999, 0.99, 0, false},
	}
	for _, c := range cases {
		got, err := percentile(seq(c.n), c.q)
		if (err == nil) != c.ok {
			t.Errorf("p%g of %d samples: err = %v, want ok=%v", 100*c.q, c.n, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("p%g of 1..%d = %v, want %v", 100*c.q, c.n, got, c.want)
		}
	}
	for q, want := range map[float64]int{0.5: 20, 0.9: 100, 0.99: 1000} {
		if got := minSamplesFor(q); got != want {
			t.Errorf("minSamplesFor(%v) = %d, want %d", q, got, want)
		}
	}
}

func TestGroupedPercentileSetsABurstAside(t *testing.T) {
	// Three groups of 1000 samples; a burst makes the middle group ten
	// times slower. Pooled, the burst owns the top percent; grouped, the
	// median over the groups' p99 is the quiet groups' p99.
	xs := make([]float64, 3000)
	for i := range xs {
		xs[i] = float64(i%1000 + 1)
		if i >= 1000 && i < 2000 {
			xs[i] *= 10
		}
	}
	pooled, err := percentile(xs, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	got, groups, err := groupedPercentile(xs, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if groups != 3 || got != 990 || pooled <= 990 {
		t.Errorf("grouped p99 = %v over %d groups (pooled %v); want 990 over 3 groups, pooled above it", got, groups, pooled)
	}
	// A remainder joins the last group rather than forming a short one.
	if _, groups, err := groupedPercentile(xs[:2500], 0.99); err != nil || groups != 2 {
		t.Errorf("2500 samples: %d groups, err %v; want 2", groups, err)
	}
	if _, _, err := groupedPercentile(xs[:999], 0.99); err == nil {
		t.Error("999 samples cannot give a p99 with ten beyond it")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Expected values from Python's statistics.quantiles(data, n=4).
	cases := []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, [3]float64{1.75, 3.5, 5.25}},
	}
	for _, c := range cases {
		q1, q2, q3, err := quartiles(c.data)
		if err != nil {
			t.Fatal(err)
		}
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.data, got, c.want)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one sample should fail")
	}
}

func TestReferenceBlocksSplitTranscript(t *testing.T) {
	transcript := "ctcpbench: budget 200000 instructions per run\n\n" +
		"Table A\n=======\nrow 1\n\n[ta regenerated in 5ms]\n\n" +
		"Table B\n=======\nrow 2\nnote: x\n\n[tb regenerated in 0s]\n\n" +
		"runner: 2 simulated (0 failed), 0 cache hits, 0 deduped\n"
	blocks, err := referenceBlocks(transcript)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 2 || blocks["ta"] != "Table A\n=======\nrow 1" || blocks["tb"] != "Table B\n=======\nrow 2\nnote: x" {
		t.Fatalf("blocks = %q", blocks)
	}
	if !matchesBlock("Table A\n=======\nrow 1\n", blocks["ta"]) {
		t.Error("a render with its trailing newline should match its block")
	}
	if matchesBlock("Table A\n=======\nrow 2\n", blocks["ta"]) {
		t.Error("a changed render matched")
	}
	if _, err := referenceBlocks("no trailers here\n"); err == nil {
		t.Error("a transcript without trailers should fail")
	}
	if _, err := referenceBlocks("x\n[ta regenerated in 1s]\n"); err == nil {
		t.Error("a transcript without the ctcpbench header should fail")
	}
}

// TestReferenceBlocksCatchChangedArtifact renders two artifacts from a
// serial runner at the reference budget: the fresh renders must match their
// blocks in results_full.txt, and a one-character change must not.
func TestReferenceBlocksCatchChangedArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 12 runs")
	}
	blocks, err := loadReferenceBlocks("../results_full.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range artifactNames {
		if blocks[name] == "" {
			t.Errorf("results_full.txt has no block for %s", name)
		}
	}
	r := experiment.NewRunner(experiment.Options{Budget: paperBudget, Parallelism: 1})
	for _, name := range []string{"table1", "fig4"} {
		out := renderers[name](r)
		if !matchesBlock(out, blocks[name]) {
			t.Errorf("%s does not match results_full.txt:\n%s\n--- want ---\n%s", name, out, blocks[name])
		}
		i := strings.IndexAny(out, "0123456789")
		changed := out[:i] + string('0'+(out[i]-'0'+1)%10) + out[i+1:]
		if matchesBlock(changed, blocks[name]) {
			t.Errorf("%s with one digit changed still matches", name)
		}
	}
}

func TestParsePromAndDeltas(t *testing.T) {
	before, err := parseProm("# HELP a_total x\n# TYPE a_total counter\na_total 3\nb_seconds_total 0.5\n" +
		"c_bucket{le=\"0.1\"} 2\nt{tenant=\"x y\",outcome=\"done\"} 7\n")
	if err != nil {
		t.Fatal(err)
	}
	if before[`t{tenant="x y",outcome="done"}`] != 7 || before[`c_bucket{le="0.1"}`] != 2 {
		t.Fatalf("labelled samples parsed as %v", before)
	}
	after, err := parseProm("a_total 10\nb_seconds_total 1.75\n")
	if err != nil {
		t.Fatal(err)
	}
	if d, err := delta(before, after, "a_total"); err != nil || d != 7 {
		t.Errorf("delta a_total = %v, %v; want 7", d, err)
	}
	if d, err := delta(before, after, "b_seconds_total"); err != nil || d != 1.25 {
		t.Errorf("delta b_seconds_total = %v, %v; want 1.25", d, err)
	}
	if _, err := delta(before, after, "missing_total"); err == nil {
		t.Error("a missing counter should be an error, not zero")
	}
	if _, err := delta(after, before, "a_total"); err == nil {
		t.Error("a counter going backwards should be an error")
	}
	if _, err := parseProm("novalue\n"); err == nil {
		t.Error("a line without a value should fail")
	}
	if _, err := parseProm("x 1\nx 2\n"); err == nil {
		t.Error("a duplicate sample should fail")
	}
}

// TestParsePromReadsCtcpd scrapes a real in-process ctcpd and checks that
// every counter the service workload relies on parses.
func TestParsePromReadsCtcpd(t *testing.T) {
	svc, err := serve.New(serve.Config{Store: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := svc.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}()
	ts := httptest.NewServer(svc)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	m, err := parseProm(string(body))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"ctcpd_runner_started_total", "ctcpd_runner_cache_hits_total", "ctcpd_store_reads_hit_total",
		"ctcpd_queue_wait_seconds_total", "ctcpd_queue_wait_count_total",
		"ctcpd_sim_seconds_total", "ctcpd_sim_count_total",
	} {
		if _, err := delta(m, m, name); err != nil {
			t.Error(err)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var nilTracer *tracer
	if id := nilTracer.begin(0, "x", "y"); id != 0 {
		t.Error("a nil tracer should record nothing")
	}
	nilTracer.end(0, nil)
}

func TestRobustTimeTakesEachPartsMedian(t *testing.T) {
	ms := time.Millisecond
	iters := []*iteration{
		{parts: map[string]time.Duration{"a": 10 * ms, "b": 20 * ms}},
		{parts: map[string]time.Duration{"a": 90 * ms, "b": 22 * ms}}, // a burst in a
		{parts: map[string]time.Duration{"a": 12 * ms, "b": 80 * ms}}, // a burst in b
	}
	if got, want := robustTime(iters), 12*ms+22*ms; got != want {
		t.Errorf("robustTime = %v, want %v", got, want)
	}
}

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json in step with the
// metrics this program prints.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []entry                 `json:"end_to_end"`
		PerLayer  []entry                 `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	want := func(defs []metricDef) []entry {
		out := make([]entry, len(defs))
		for i, d := range defs {
			out[i] = entry{Name: d.name, Unit: d.unit, Better: "lower"}
			if d.higherIsBetter {
				out[i].Better = "higher"
			}
		}
		return out
	}
	for _, c := range []struct {
		section   string
		got, want []entry
	}{
		{"end_to_end", spec.EndToEnd, want(endToEndMetrics)},
		{"per_layer", spec.PerLayer, want(layerMetrics)},
	} {
		g, _ := json.Marshal(c.got)
		w, _ := json.Marshal(c.want)
		if string(g) != string(w) {
			t.Errorf("BENCHMARK.json %s differs from the metrics perfbench prints; want\n%s", c.section, w)
		}
	}
	for _, w := range spec.Workloads {
		if _, err := newWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
}
