package experiment

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ctcp/internal/emu"
	"ctcp/internal/pipeline"
	"ctcp/internal/snap"
	"ctcp/internal/workload"
)

const (
	ckptBudget = uint64(20_000)
	ckptEvery  = uint64(5_000)
)

// segmentedReference runs gzip/base in memory with the same segment
// schedule the checkpointed runner uses (pauses at every multiple of
// ckptEvery), which is the bit-exact baseline a resumed run must match.
func segmentedReference(t *testing.T) *pipeline.Stats {
	t.Helper()
	bm, _ := workload.ByName("gzip")
	cfg := BaseConfig()
	cfg.MaxInsts = 0
	p := pipeline.New(&emu.LimitStream{S: emu.New(bm.ProgramFor(ckptBudget)), Budget: ckptBudget}, cfg)
	for next := ckptEvery; ; next += ckptEvery {
		if next > ckptBudget {
			next = ckptBudget
		}
		if p.RunTo(next) || p.Consumed() >= ckptBudget {
			break
		}
	}
	return p.Finish()
}

// ckptStem is the path, without extension, of gzip/base's checkpoint and
// result record under opts: both are named by the run fingerprint.
func ckptStem(opts Options) string {
	return filepath.Join(opts.CheckpointDir, FingerprintHex(RunFingerprint("gzip", BaseConfig(), opts)))
}

// plantFirstSegment writes the checkpoint a run killed after its first
// segment would leave, fingerprinted for fpOpts, to path.
func plantFirstSegment(t *testing.T, path string, fpOpts Options) {
	t.Helper()
	bm, _ := workload.ByName("gzip")
	cfg := BaseConfig()
	cfg.MaxInsts = 0
	budget := fpOpts.Budget
	p := pipeline.New(&emu.LimitStream{S: emu.New(bm.ProgramFor(budget)), Budget: budget}, cfg)
	if p.RunTo(ckptEvery) {
		t.Fatal("stream exhausted during the first segment")
	}
	w := snap.NewWriter()
	w.Begin("run")
	w.U64(RunFingerprint("gzip", BaseConfig(), fpOpts))
	w.End()
	p.Snapshot(w)
	if err := snap.WriteFile(path, w); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointedRunMatchesSegmented: a checkpointed run leaves a store
// record, removes its checkpoint, matches the in-memory segmented reference
// exactly, and a second runner over the same directory returns the
// identical stats straight from the record without simulating.
func TestCheckpointedRunMatchesSegmented(t *testing.T) {
	dir := t.TempDir()
	want := segmentedReference(t)
	bm, _ := workload.ByName("gzip")

	opts := Options{Budget: ckptBudget, CheckpointDir: dir, CheckpointEvery: ckptEvery}
	r := NewRunner(opts)
	got, err := r.RunErr(bm, "base", BaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		wj, _ := json.Marshal(want)
		gj, _ := json.Marshal(got)
		t.Errorf("checkpointed run diverged from segmented reference\n want %s\n got  %s", wj, gj)
	}

	stem := ckptStem(opts)
	if _, err := os.Stat(stem + ".json"); err != nil {
		t.Fatalf("store record missing: %v", err)
	}
	if _, err := os.Stat(stem + ".ckpt"); !os.IsNotExist(err) {
		t.Errorf("checkpoint not removed after completion (err=%v)", err)
	}

	// A fresh runner answers from the record. Every finished simulation
	// writes a record, so a read hit with no write means none ran.
	r2 := NewRunner(opts)
	got2, err := r2.RunErr(bm, "base", BaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got2) {
		t.Error("record-served stats differ from the original run")
	}
	if hits, _, puts := r2.store.Counts(); hits != 1 || puts != 0 {
		t.Errorf("second runner: %d record hits, %d writes; want 1 hit and no simulation", hits, puts)
	}
}

// TestCheckpointedRecordBeatsLeftoverCheckpoint: a run killed after its
// record became durable but before its checkpoint was removed leaves both
// files. The rerun must be served from the record, not resume the
// checkpoint.
func TestCheckpointedRecordBeatsLeftoverCheckpoint(t *testing.T) {
	opts := Options{Budget: ckptBudget, CheckpointDir: t.TempDir(), CheckpointEvery: ckptEvery}
	stem := ckptStem(opts)
	plantFirstSegment(t, stem+".ckpt", opts)
	// Distinctive stats no simulation produces prove where the answer came from.
	marker := &pipeline.Stats{Cycles: 42, Retired: ckptBudget}
	st := &Store{dir: opts.CheckpointDir}
	if err := st.Put(&Record{Fingerprint: FingerprintHex(RunFingerprint("gzip", BaseConfig(), opts)),
		Benchmark: "gzip", Config: "base", Budget: ckptBudget, Mode: "checkpointed", Stats: marker}); err != nil {
		t.Fatal(err)
	}
	bm, _ := workload.ByName("gzip")
	got, err := NewRunner(opts).RunErr(bm, "base", BaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(marker, got) {
		t.Errorf("run resumed the leftover checkpoint instead of serving the record: got %+v", got)
	}
}

// TestCheckpointedResumeFromPlantedCheckpoint simulates an interrupted
// sweep: the first segment's checkpoint is on disk (written through the
// public Snapshot path) with no record, and the runner must pick it up
// and finish bit-identically to the uninterrupted segmented run.
func TestCheckpointedResumeFromPlantedCheckpoint(t *testing.T) {
	want := segmentedReference(t)
	bm, _ := workload.ByName("gzip")
	opts := Options{Budget: ckptBudget, CheckpointDir: t.TempDir(), CheckpointEvery: ckptEvery}
	plantFirstSegment(t, ckptStem(opts)+".ckpt", opts)

	r := NewRunner(opts)
	got, err := r.RunErr(bm, "base", BaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		wj, _ := json.Marshal(want)
		gj, _ := json.Marshal(got)
		t.Errorf("resumed run diverged from uninterrupted segmented run\n want %s\n got  %s", wj, gj)
	}
}

// TestCheckpointedCorruptCheckpointRestarts: an undecodable checkpoint is
// discarded and the run completes from scratch instead of failing.
func TestCheckpointedCorruptCheckpointRestarts(t *testing.T) {
	opts := Options{Budget: ckptBudget, CheckpointDir: t.TempDir(), CheckpointEvery: ckptEvery}
	if err := os.WriteFile(ckptStem(opts)+".ckpt", []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	bm, _ := workload.ByName("gzip")
	r := NewRunner(opts)
	got, err := r.RunErr(bm, "base", BaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if want := segmentedReference(t); !reflect.DeepEqual(want, got) {
		t.Error("restarted run diverged from segmented reference")
	}
}

// TestCheckpointedBudgetChangeResimulates is the stale-result regression
// test: a completed run's record must only satisfy reruns with the same
// budget. Rerunning the same key over the same directory at double the
// budget has to produce fresh full-length stats, never the old journal's.
func TestCheckpointedBudgetChangeResimulates(t *testing.T) {
	dir := t.TempDir()
	bm, _ := workload.ByName("gzip")

	first, err := NewRunner(Options{Budget: ckptBudget, CheckpointDir: dir, CheckpointEvery: ckptEvery}).
		RunErr(bm, "base", BaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if first.Retired != ckptBudget {
		t.Fatalf("first run retired %d, want %d", first.Retired, ckptBudget)
	}

	second, err := NewRunner(Options{Budget: 2 * ckptBudget, CheckpointDir: dir, CheckpointEvery: ckptEvery}).
		RunErr(bm, "base", BaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if second.Retired != 2*ckptBudget {
		t.Fatalf("rerun at budget %d served stale stats: retired %d", 2*ckptBudget, second.Retired)
	}

	// Each budget now has its own record; a third runner at the new budget
	// is satisfied from its record, and one at the old budget from the old.
	again, err := NewRunner(Options{Budget: 2 * ckptBudget, CheckpointDir: dir, CheckpointEvery: ckptEvery}).
		RunErr(bm, "base", BaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second, again) {
		t.Error("record reread at the same budget differs from the run that wrote it")
	}
	back, err := NewRunner(Options{Budget: ckptBudget, CheckpointDir: dir, CheckpointEvery: ckptEvery}).
		RunErr(bm, "base", BaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, back) {
		t.Error("returning to the original budget did not reproduce the original stats")
	}
}

// TestCheckpointedStaleCheckpointDiscarded plants a mid-run checkpoint
// written under a different budget (whose snapshotted LimitStream still
// carries that budget) under the new run's file name — a renamed or
// hand-copied file — and checks a run at the new budget discards it on its
// fingerprint header and restarts from scratch instead of resuming into the
// wrong budget.
func TestCheckpointedStaleCheckpointDiscarded(t *testing.T) {
	dir := t.TempDir()
	bm, _ := workload.ByName("gzip")
	oldOpts := Options{Budget: ckptBudget, CheckpointDir: dir, CheckpointEvery: ckptEvery}
	newOpts := Options{Budget: 2 * ckptBudget, CheckpointDir: dir, CheckpointEvery: ckptEvery}
	plantFirstSegment(t, ckptStem(newOpts)+".ckpt", oldOpts)

	got, err := NewRunner(newOpts).RunErr(bm, "base", BaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got.Retired != newOpts.Budget {
		t.Fatalf("run resumed a stale checkpoint: retired %d, want %d", got.Retired, newOpts.Budget)
	}
}

// TestCheckpointedBadRecordResimulates: a record that is corrupt, or that
// names another run's fingerprint, cannot prove which budget or config
// produced it; it must be resimulated, not trusted.
func TestCheckpointedBadRecordResimulates(t *testing.T) {
	bm, _ := workload.ByName("gzip")
	want := segmentedReference(t)
	mislabeled, err := json.Marshal(&Record{Fingerprint: FingerprintHex(42), Benchmark: "gzip",
		Config: "base", Budget: ckptBudget, Stats: &pipeline.Stats{Cycles: 42, Retired: 42}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		body []byte
	}{{"corrupt", []byte("{torn")}, {"mislabeled", mislabeled}} {
		opts := Options{Budget: ckptBudget, CheckpointDir: t.TempDir(), CheckpointEvery: ckptEvery}
		if err := os.WriteFile(ckptStem(opts)+".json", c.body, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := NewRunner(opts).RunErr(bm, "base", BaseConfig())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s record was served instead of resimulating", c.name)
		}
	}
}

// TestRunnerInterrupt: a closed Interrupt channel makes pending runs return
// ErrInterrupted instead of simulating, and a checkpointed rerun without the
// interrupt completes normally afterwards.
func TestRunnerInterrupt(t *testing.T) {
	dir := t.TempDir()
	bm, _ := workload.ByName("gzip")
	stop := make(chan struct{})
	close(stop)
	r := NewRunner(Options{Budget: ckptBudget, CheckpointDir: dir, CheckpointEvery: ckptEvery, Interrupt: stop})
	if _, err := r.RunErr(bm, "base", BaseConfig()); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	got, err := NewRunner(Options{Budget: ckptBudget, CheckpointDir: dir, CheckpointEvery: ckptEvery}).
		RunErr(bm, "base", BaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if want := segmentedReference(t); !reflect.DeepEqual(want, got) {
		t.Error("post-interrupt rerun diverged from segmented reference")
	}
}

// TestSampledRunnerDeterministic: the sampled runner path is reproducible
// and reports the estimate over the full budget.
func TestSampledRunnerDeterministic(t *testing.T) {
	bm, _ := workload.ByName("gzip")
	opts := Options{Budget: ckptBudget, SampleInterval: 5_000, SampleDetail: 2_000, SampleWarmup: 1_000, SampleWorkers: 4}
	a, err := NewRunner(opts).RunErr(bm, "base", BaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRunner(opts).RunErr(bm, "base", BaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two sampled runner executions differ")
	}
	if a.Retired != ckptBudget {
		t.Errorf("sampled stats cover %d insts, want %d", a.Retired, ckptBudget)
	}
	if a.Cycles == 0 {
		t.Error("sampled estimate has zero cycles")
	}
}

// TestSampledAndCheckpointedExclusive: configuring both modes is a per-run
// error, not a silent precedence choice.
func TestSampledAndCheckpointedExclusive(t *testing.T) {
	bm, _ := workload.ByName("gzip")
	r := NewRunner(Options{Budget: 1_000, SampleInterval: 500, CheckpointDir: t.TempDir()})
	if _, err := r.RunErr(bm, "base", BaseConfig()); err == nil {
		t.Fatal("mutually exclusive modes accepted")
	}
}
