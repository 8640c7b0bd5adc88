package main

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"time"

	"ctcp/internal/core"
	"ctcp/internal/emu"
	"ctcp/internal/isa"
	"ctcp/internal/pipeline"
	"ctcp/internal/snap"
	"ctcp/internal/trace"
)

// family maps a runner configuration key to its strategy family.
func family(cfgKey string) string {
	for _, f := range []string{"issue", "friendly", "fdrt"} {
		if strings.HasPrefix(cfgKey, f) {
			return f
		}
	}
	return "base"
}

// liveHeapMB collects garbage and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// timeMedian calls f n times and returns the median duration of one call.
func timeMedian(n int, f func()) time.Duration {
	ds := make([]float64, n)
	for i := range ds {
		start := time.Now()
		f()
		ds[i] = float64(time.Since(start))
	}
	return time.Duration(median(ds))
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// simCounts aggregates the simulated statistics of a workload's runs into
// the deterministic per-layer counts.
type simCounts struct {
	cycles, retired           uint64
	tcHits, tcLookups         uint64
	traces                    uint64
	migrated, migSeen         uint64
	mispredicts, condBranches uint64
}

func (c *simCounts) add(s *pipeline.Stats) {
	c.cycles += uint64(s.Cycles)
	c.retired += s.Retired
	c.tcHits += s.TC.Hits
	c.tcLookups += s.TC.Lookups
	c.traces += s.Fill.TracesBuilt
	c.migrated += s.Fill.Migrated
	c.migSeen += s.Fill.Seen
	c.mispredicts += s.Mispredicts
	c.condBranches += s.CondBranches
}

func ratioOf(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func (c *simCounts) report(m metrics) {
	m.set("pipeline.ipc", ratioOf(c.retired, c.cycles))
	m.set("pipeline.cycles", float64(c.cycles))
	m.set("trace.hit_rate", ratioOf(c.tcHits, c.tcLookups))
	m.set("core.traces_built_per_kinst", 1000*ratioOf(c.traces, c.retired))
	m.set("core.migration_rate", ratioOf(c.migrated, c.migSeen))
	m.set("bpred.mispredict_rate", ratioOf(c.mispredicts, c.condBranches))
}

// emuRun is one functional run the emu probe repeats: a program and its
// instruction budget.
type emuRun struct {
	prog   *isa.Program
	budget uint64
}

// probeEmu replays the functional work behind a workload's simulations on
// the emulator alone — one Machine.Run per run the workload simulates — and
// reports the time per instruction and that time's share of the untraced
// simulating phase, both in CPU time. It also times one emu.New.
func probeEmu(e *env, m metrics, runs []emuRun) error {
	id := e.tr.begin(0, "emu", "probe emu.Run")
	var insts uint64
	start := cpuNow()
	for _, r := range runs {
		n, err := emu.New(r.prog).Run(r.budget)
		if err != nil {
			return fmt.Errorf("emu probe: %w", err)
		}
		insts += n
	}
	total := cpuSince(start)
	e.tr.end(id, map[string]any{"insts": insts, "runs": len(runs)})
	m.set("emu.ns_per_inst", float64(total.Nanoseconds())/float64(insts))
	if e.untracedCPU > 0 {
		m.set("emu.ff_share", total.Seconds()/e.untracedCPU.Seconds())
	}
	id = e.tr.begin(0, "emu", "probe emu.New")
	m.set("emu.new_us", us(timeMedian(101, func() { emu.New(runs[0].prog) })))
	e.tr.end(id, nil)
	return nil
}

// probeSnap checkpoints a machine at instruction at and restores it.
func probeSnap(e *env, m metrics, prog *isa.Program, at uint64) error {
	id := e.tr.begin(0, "snap", "probe snap checkpoint/restore")
	defer e.tr.end(id, nil)
	mach := emu.New(prog)
	if _, err := mach.Run(at); err != nil {
		return fmt.Errorf("snap probe: %w", err)
	}
	var ckpt []byte
	var ferr error
	m.set("snap.checkpoint_us", us(timeMedian(31, func() {
		w := snap.NewWriter()
		mach.Snapshot(w)
		ckpt, ferr = w.Finish()
	})))
	if ferr != nil {
		return fmt.Errorf("snap probe: %w", ferr)
	}
	m.set("snap.checkpoint_kb", float64(len(ckpt))/1024)
	into := emu.New(prog)
	var rerr error
	m.set("snap.restore_us", us(timeMedian(31, func() {
		r, err := snap.NewReader(ckpt)
		if err != nil {
			rerr = err
			return
		}
		into.Restore(r)
		if err := r.Close(); err != nil {
			rerr = err
		}
	})))
	if rerr != nil {
		return fmt.Errorf("snap probe restore: %w", rerr)
	}
	e.check(into.InstCount() == mach.InstCount() && into.PC == mach.PC && into.Regs == mach.Regs,
		"restored machine differs from the checkpointed one")
	return nil
}

// probePipelineNew times one pipeline.New.
func probePipelineNew(e *env, m metrics, prog *isa.Program, cfg pipeline.Config) {
	id := e.tr.begin(0, "pipeline", "probe pipeline.New")
	mach := emu.New(prog)
	m.set("pipeline.new_us", us(timeMedian(101, func() { pipeline.New(mach, cfg) })))
	e.tr.end(id, nil)
}

// captureRun simulates prog for budget instructions with a RetireHook that
// records the retire stream.
func captureRun(prog *isa.Program, cfg pipeline.Config, budget uint64) ([]core.RetireInfo, *pipeline.Stats) {
	var stream []core.RetireInfo
	cfg.MaxInsts = budget
	cfg.RetireHook = func(info core.RetireInfo) { stream = append(stream, info) }
	s := pipeline.New(emu.New(prog), cfg).Run()
	return stream, s
}

// replayFill feeds a captured retire stream through a standalone fill unit
// and returns the best time per instruction over reps replays and the
// replay's FillStats.
func replayFill(stream []core.RetireInfo, cfg pipeline.Config, reps int) (float64, core.FillStats) {
	var best time.Duration
	var fs core.FillStats
	for i := 0; i < reps; i++ {
		f := core.NewFillUnit(core.Config{
			Strategy:      cfg.Strategy,
			DisableChains: cfg.DisableChains,
			Geom:          cfg.Geom,
			Trace:         cfg.Trace,
		}, trace.NewCache(cfg.Trace))
		start := time.Now()
		for j := range stream {
			f.Retire(&stream[j])
		}
		f.Flush()
		d := time.Since(start)
		if i == 0 || d < best {
			best = d
		}
		fs = f.S
	}
	return float64(best.Nanoseconds()) / float64(len(stream)), fs
}

// probeRetire captures the retire stream of one warm run (the program from
// its entry for up to warmBudget instructions) and of one cold window
// (restored at coldAt, detail instructions with a quarter warm-up), replays
// each through a standalone fill unit, and records the replay's FillStats
// next to the run's. The cold window is also the pipeline.ns_per_cycle.cold
// probe: pipeline.New plus RunTo on a restored checkpoint.
func probeRetire(e *env, m metrics, prog *isa.Program, cfg pipeline.Config, warmBudget, coldAt, detail uint64) error {
	id := e.tr.begin(0, "core", "probe retire replay warm")
	stream, s := captureRun(prog, cfg, warmBudget)
	ns, fs := replayFill(stream, cfg, 3)
	e.tr.end(id, map[string]any{"insts": len(stream), "run_fill": s.Fill, "replay_fill": fs})
	m.set("core.retire_ns_per_inst.warm", ns)
	m.set("core.replay_match.warm", boolVal(reflect.DeepEqual(fs, s.Fill)))

	mach := emu.New(prog)
	if _, err := mach.Run(coldAt); err != nil {
		return fmt.Errorf("cold probe: %w", err)
	}
	w := snap.NewWriter()
	mach.Snapshot(w)
	ckpt, err := w.Finish()
	if err != nil {
		return fmt.Errorf("cold probe: %w", err)
	}
	window := func(hook func(core.RetireInfo)) (*pipeline.Stats, error) {
		mc := emu.New(prog)
		r, err := snap.NewReader(ckpt)
		if err != nil {
			return nil, err
		}
		mc.Restore(r)
		if err := r.Close(); err != nil {
			return nil, err
		}
		c := cfg
		c.RetireHook = hook
		p := pipeline.New(&emu.LimitStream{S: mc, Budget: detail}, c)
		p.RunTo(detail / 4)
		p.RunTo(0)
		return p.Finish(), nil
	}
	id = e.tr.begin(0, "pipeline", "probe cold window")
	var nsPerCycle []float64
	var cold *pipeline.Stats
	for i := 0; i < 5; i++ {
		start := time.Now()
		st, err := window(nil)
		if err != nil {
			return fmt.Errorf("cold probe: %w", err)
		}
		nsPerCycle = append(nsPerCycle, float64(time.Since(start).Nanoseconds())/float64(st.Cycles))
		cold = st
	}
	e.tr.end(id, map[string]any{"cycles": cold.Cycles, "retired": cold.Retired})
	m.set("pipeline.ns_per_cycle.cold", median(nsPerCycle))

	id = e.tr.begin(0, "core", "probe retire replay cold")
	var coldStream []core.RetireInfo
	cs, err := window(func(info core.RetireInfo) { coldStream = append(coldStream, info) })
	if err != nil {
		return fmt.Errorf("cold probe: %w", err)
	}
	e.check(reflect.DeepEqual(*cs, *cold), "cold window with a RetireHook simulated differently")
	ns, fs = replayFill(coldStream, cfg, 5)
	e.tr.end(id, map[string]any{"insts": len(coldStream), "run_fill": cs.Fill, "replay_fill": fs})
	m.set("core.retire_ns_per_inst.cold", ns)
	m.set("core.replay_match.cold", boolVal(reflect.DeepEqual(fs, cs.Fill)))
	return nil
}

func boolVal(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// probeCommon runs the probes every workload shares on its own inputs: the
// functional work of its runs, then snap, pipeline.New and the retire
// replays on its first run (cfg is the workload's own configuration).
func probeCommon(e *env, m metrics, runs []emuRun, cfg pipeline.Config) error {
	if err := probeEmu(e, m, runs); err != nil {
		return err
	}
	prog, budget := runs[0].prog, runs[0].budget
	if err := probeSnap(e, m, prog, budget/2); err != nil {
		return err
	}
	probePipelineNew(e, m, prog, cfg)
	return probeRetire(e, m, prog, cfg, min(budget, 200_000), budget/2, min(budget/2, 20_000))
}
