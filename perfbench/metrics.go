package main

import (
	"fmt"
	"sort"
)

// metricDef names one reported metric and its unit. BENCHMARK.json at the
// repository root lists the same names (a test keeps the two in step).
type metricDef struct {
	name, unit     string
	higherIsBetter bool
}

// endToEndMetrics are what a user of the simulator waits for; every workload
// reports all of them with tracing off (README.md defines each per
// workload). The other latency percentiles are per-layer metrics: the tails
// spread too widely between runs on a shared host to gate, and only service
// has hits.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", false},
	{"sim_minst_per_s", "Minst/s", true},
	{"heap_live_mb", "MB", false},
	{"cold_ms_p50", "ms", false},
}

// artifactNames is the paper-selected workload's artifact list, in ctcpbench's
// generation order.
var artifactNames = []string{"table1", "fig4", "table2", "table3", "fig6", "table8", "fig7", "table9", "table10", "ablation"}

// families groups runner configuration keys into strategy families.
var families = []string{"base", "issue", "friendly", "fdrt"}

// layerMetrics are the per-layer metrics of a traced run. Every workload
// reports every one; a layer a workload never calls reads 0.
var layerMetrics = func() []metricDef {
	lower := func(name, unit string) metricDef { return metricDef{name, unit, false} }
	higher := func(name, unit string) metricDef { return metricDef{name, unit, true} }
	defs := []metricDef{
		lower("experiment.sims", "count"),
		higher("experiment.cache_hits", "count"),
		higher("experiment.hit_ratio", "ratio"),
		lower("experiment.sim_s", "s"),
		lower("experiment.overhead_s", "s"),
	}
	for _, a := range artifactNames {
		defs = append(defs, lower("experiment.artifact_s."+a, "s"))
	}
	for _, f := range families {
		defs = append(defs, lower("pipeline.ns_per_cycle."+f, "ns"))
	}
	defs = append(defs,
		lower("pipeline.ns_per_cycle.cold", "ns"),
		lower("pipeline.new_us", "us"),
		lower("pipeline.retained_kb_per_result", "KB"),
		lower("core.retire_ns_per_inst.warm", "ns"),
		lower("core.retire_ns_per_inst.cold", "ns"),
		higher("core.replay_match.warm", "bool"),
		higher("core.replay_match.cold", "bool"),
		lower("emu.ns_per_inst", "ns"),
		lower("emu.ff_share", "ratio"),
		lower("emu.new_us", "us"),
		lower("snap.checkpoint_us", "us"),
		lower("snap.checkpoint_kb", "KB"),
		lower("snap.restore_us", "us"),
		lower("sample.regions", "count"),
		lower("sample.detailed_frac", "ratio"),
		lower("workload.program_ms", "ms"),
		lower("serve.queue_wait_ms", "ms"),
		lower("serve.sim_ms", "ms"),
		lower("serve.overhead_ms", "ms"),
		lower("serve.store_hit_ms", "ms"),
		lower("serve.index_hit_ms", "ms"),
		lower("serve.hit_response_kb", "KB"),
		lower("serve.store_reads_hit", "count"),
		lower("serve.runner_started", "count"),
		// Simulated counts: deterministic, so they repeat exactly and a
		// change that only claims speed may not move them.
		higher("pipeline.ipc", "inst/cycle"),
		lower("pipeline.cycles", "cycles"),
		higher("trace.hit_rate", "ratio"),
		lower("core.traces_built_per_kinst", "count/kinst"),
		lower("core.migration_rate", "ratio"),
		lower("bpred.mispredict_rate", "ratio"),
	)
	// Latency percentiles of the untraced pass that are not gated.
	defs = append(defs, lower("latency.cold_ms_p90", "ms"), lower("latency.hit_ms_p50", "ms"), lower("latency.hit_ms_p99", "ms"))
	// Tracing overhead: what the traced pass cost over the untraced one, in
	// each end-to-end metric's unit (positive = tracing made it worse).
	for _, d := range endToEndMetrics {
		if d.name != "setup_s" {
			defs = append(defs, lower("tracing.overhead."+d.name, d.unit))
		}
	}
	return defs
}()

// metrics holds a traced run's per-layer values by name.
type metrics map[string]float64

func newLayerMetrics() metrics {
	m := make(metrics, len(layerMetrics))
	for _, d := range layerMetrics {
		m[d.name] = 0
	}
	return m
}

// set records a per-layer value; an undeclared name is a programming error.
func (m metrics) set(name string, v float64) {
	if _, ok := m[name]; !ok {
		panic(fmt.Sprintf("perfbench: undeclared per-layer metric %q", name))
	}
	m[name] = v
}

func (m metrics) out() map[string]metric {
	units := make(map[string]string, len(layerMetrics))
	for _, d := range layerMetrics {
		units[d.name] = d.unit
	}
	out := make(map[string]metric, len(m))
	for name, v := range m {
		out[name] = metric{Value: v, Unit: units[name]}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
