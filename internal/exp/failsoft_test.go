package exp

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"arest/internal/archive"
	"arest/internal/asgen"
	"arest/internal/obs"
	"arest/internal/probe"
)

// faultOneVP is the acceptance-test fault: kill every exchange on one
// vantage point of one AS, leaving every other connection untouched.
func faultOneVP(asID, vpIndex int) func(asgen.Record, int, probe.Conn) probe.Conn {
	return func(rec asgen.Record, vp int, c probe.Conn) probe.Conn {
		if rec.ID != asID || vp != vpIndex {
			return c
		}
		return probe.FaultConn{Conn: c}
	}
}

func failsoftRecs(t *testing.T) []asgen.Record {
	t.Helper()
	var recs []asgen.Record
	for _, id := range []int{2, 15, 28} {
		r, ok := asgen.ByID(id)
		if !ok {
			t.Fatalf("record %d missing", id)
		}
		recs = append(recs, r)
	}
	return recs
}

// TestRunContainsFaultyAS is the headline containment property: with an
// injected Conn fault on one VP of one AS, the campaign completes, the
// failed AS is quarantined with its stage and budget error, and every
// other AS's result is identical to a fault-free run.
func TestRunContainsFaultyAS(t *testing.T) {
	recs := failsoftRecs(t)
	base, err := Run(context.Background(), recs, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testCfg()
	cfg.WrapConn = faultOneVP(15, 1)
	c, err := Run(context.Background(), recs, cfg)
	if err != nil {
		t.Fatalf("campaign error despite per-AS containment: %v", err)
	}
	if len(c.Failed) != 1 {
		t.Fatalf("Failed = %v, want exactly the faulted AS", c.Failed)
	}
	f := c.Failed[0]
	if f.Record.ID != 15 || f.Stage != StageMeasure {
		t.Errorf("failure = %s, want AS#15 at stage measure", f)
	}
	var tbe *TraceBudgetError
	if !errors.As(f.Err, &tbe) {
		t.Fatalf("err = %v, want a TraceBudgetError", f.Err)
	}
	if tbe.Failed == 0 || tbe.Failed > tbe.Total || tbe.Budget != 0 {
		t.Errorf("budget error = %+v, want failed in (0, total], budget 0", tbe)
	}
	if len(c.ASes) != len(base.ASes)-1 {
		t.Fatalf("ASes = %d, want %d (only the faulted AS missing)", len(c.ASes), len(base.ASes)-1)
	}
	for _, r := range c.ASes {
		br, ok := base.ByID(r.Record.ID)
		if !ok {
			t.Fatalf("AS#%d missing from fault-free baseline", r.Record.ID)
		}
		if !reflect.DeepEqual(r, br) {
			t.Errorf("AS#%d diverged under another AS's fault", r.Record.ID)
		}
	}
}

// TestToleratedFaultShardReplaysThroughDetect: with an unlimited budget the
// degraded measurement is accepted, its Degraded record attributes the
// failures to the faulted VP, and the written shard replays deep-equal
// through Detect.
func TestToleratedFaultShardReplaysThroughDetect(t *testing.T) {
	rec, ok := asgen.ByID(15)
	if !ok {
		t.Fatal("record 15 missing")
	}
	cfg := testCfg()
	cfg.WrapConn = faultOneVP(15, 1)
	cfg.MaxTraceFailures = -1

	data, err := MeasureAS(context.Background(), rec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := data.Degraded
	if d == nil {
		t.Fatal("no Degraded record despite injected faults")
	}
	if d.FailedTraces == 0 || d.FailedTraces != len(data.PerVP[1]) {
		t.Errorf("FailedTraces = %d, want every VP-1 trace (%d)", d.FailedTraces, len(data.PerVP[1]))
	}
	if len(d.ByVP) != cfg.NumVPs || d.ByVP[0] != 0 || d.ByVP[1] != d.FailedTraces || d.ByVP[2] != 0 {
		t.Errorf("ByVP = %v, want all failures on VP 1", d.ByVP)
	}
	for _, tr := range data.PerVP[1] {
		if !tr.Failed() || !strings.Contains(tr.Err, "injected fault") {
			t.Fatalf("VP-1 trace not error-halted: halt=%v err=%q", tr.Halt, tr.Err)
		}
	}
	if err := cfg.TraceBudgetErr(data); err != nil {
		t.Fatalf("unlimited budget rejected the measurement: %v", err)
	}

	path := filepath.Join(t.TempDir(), "as-015.arest")
	if err := archive.WriteFile(path, data); err != nil {
		t.Fatal(err)
	}
	back, err := archive.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, data) {
		t.Fatal("degraded shard did not roundtrip deep-equal")
	}
	live, err := Detect(context.Background(), data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := Detect(context.Background(), back, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, replay) {
		t.Error("replayed Detect diverged from live Detect on the degraded shard")
	}
}

// TestRunShardedFaultPersistsAndResumeRederives: the over-budget shard is
// written before the quarantine verdict, and a later resume — even with
// the fault gone — re-derives the same quarantine from the persisted
// degradation instead of silently re-measuring.
func TestRunShardedFaultPersistsAndResumeRederives(t *testing.T) {
	recs := failsoftRecs(t)
	dir := t.TempDir()
	cfg := testCfg()
	cfg.WrapConn = faultOneVP(15, 1)

	c, statuses, err := RunSharded(context.Background(), recs, cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Failed) != 1 || c.Failed[0].Record.ID != 15 {
		t.Fatalf("Failed = %v, want AS#15", c.Failed)
	}
	if statuses[1] != ShardFailed {
		t.Errorf("status[1] = %v, want failed", statuses[1])
	}
	if _, err := os.Stat(ShardPath(dir, recs[1])); err != nil {
		t.Fatalf("degraded shard not persisted: %v", err)
	}

	// Resume without the fault: the quarantine decision must come from the
	// shard on disk, not from a re-measurement.
	c2, st2, err := RunSharded(context.Background(), recs, testCfg(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(c2.Failed) != 1 || c2.Failed[0].Record.ID != 15 {
		t.Fatalf("resume Failed = %v, want the persisted quarantine re-derived", c2.Failed)
	}
	var tbe *TraceBudgetError
	if !errors.As(c2.Failed[0].Err, &tbe) {
		t.Errorf("resume err = %v, want a TraceBudgetError", c2.Failed[0].Err)
	}
	if st2[0] != ShardResumed || st2[1] != ShardFailed || st2[2] != ShardResumed {
		t.Errorf("resume statuses = %v, want [resumed failed resumed]", st2)
	}
	if !reflect.DeepEqual(c.ASes, c2.ASes) {
		t.Error("healthy ASes diverged between measured and resumed runs")
	}
}

// TestRunMatchesRunShardedUnderFault pins the one campaign driver and the
// one budget check: under the same injected fault, the in-memory Run and a
// fresh sharded run (which replays every AS from its just-written shard)
// must agree on every healthy result and on the Failed list — AS, stage and
// error text alike.
func TestRunMatchesRunShardedUnderFault(t *testing.T) {
	recs := failsoftRecs(t)
	cfg := testCfg()
	cfg.WrapConn = faultOneVP(15, 1)
	live, err := Run(context.Background(), recs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sharded, statuses, err := RunSharded(context.Background(), recs, cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if want := []ShardStatus{ShardMeasured, ShardFailed, ShardMeasured}; !reflect.DeepEqual(statuses, want) {
		t.Errorf("statuses = %v, want %v", statuses, want)
	}
	if !reflect.DeepEqual(live.ASes, sharded.ASes) {
		t.Error("healthy ASes diverged between Run and RunSharded")
	}
	if len(live.Failed) != 1 || len(sharded.Failed) != 1 {
		t.Fatalf("Failed = %v (Run) vs %v (RunSharded), want the faulted AS once each", live.Failed, sharded.Failed)
	}
	lf, sf := live.Failed[0], sharded.Failed[0]
	if lf.Record.ID != sf.Record.ID || lf.Stage != sf.Stage || lf.Err.Error() != sf.Err.Error() {
		t.Errorf("failure diverged: %s (Run) vs %s (RunSharded)", lf, sf)
	}
}

// TestFaultyCampaignParallelMatchesSequential extends the determinism
// contract to the failure path: with an injected fault, an 8-worker run
// must produce the same results, the same Failed list, and bit-identical
// deterministic counters — failure counters included — as a sequential run.
func TestFaultyCampaignParallelMatchesSequential(t *testing.T) {
	recs := failsoftRecs(t)
	regs := map[int]*obs.Registry{}
	run := func(workers int) *Campaign {
		cfg := testCfg()
		cfg.Workers = workers
		cfg.WrapConn = faultOneVP(15, 1)
		regs[workers] = obs.New()
		cfg.Metrics = regs[workers]
		c, err := Run(context.Background(), recs, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return c
	}
	seq := run(1)
	parl := run(8)

	seqSnap := regs[1].Snapshot().Deterministic()
	parSnap := regs[8].Snapshot().Deterministic()
	if !reflect.DeepEqual(seqSnap, parSnap) {
		for k, v := range seqSnap.Counters {
			if parSnap.Counters[k] != v {
				t.Errorf("counter %s: %d (seq) vs %d (par)", k, v, parSnap.Counters[k])
			}
		}
		for k, v := range parSnap.Counters {
			if _, ok := seqSnap.Counters[k]; !ok {
				t.Errorf("counter %s: only in parallel run (%d)", k, v)
			}
		}
	}
	// The failure path must be instrumented, and identically so.
	for _, k := range []string{"probe.exchange_errors", "probe.halt.error", "exp.traces.failed", "exp.ases.failed"} {
		if seqSnap.Counters[k] == 0 {
			t.Errorf("counter %s not recorded under faults", k)
		}
	}

	if len(seq.ASes) != len(parl.ASes) {
		t.Fatalf("AS count diverged: %d vs %d", len(seq.ASes), len(parl.ASes))
	}
	for i := range seq.ASes {
		if !reflect.DeepEqual(seq.ASes[i], parl.ASes[i]) {
			t.Errorf("AS#%d diverged between worker counts", seq.ASes[i].Record.ID)
		}
	}
	if len(seq.Failed) != len(parl.Failed) {
		t.Fatalf("Failed count diverged: %v vs %v", seq.Failed, parl.Failed)
	}
	for i := range seq.Failed {
		sf, pf := seq.Failed[i], parl.Failed[i]
		if sf.Record.ID != pf.Record.ID || sf.Stage != pf.Stage || sf.Err.Error() != pf.Err.Error() {
			t.Errorf("failure %d diverged: %s vs %s", i, sf, pf)
		}
	}
}
