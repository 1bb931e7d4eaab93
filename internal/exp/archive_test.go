package exp

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"arest/internal/archive"
	"arest/internal/asgen"
)

func testRecords(t *testing.T, ids ...int) []asgen.Record {
	t.Helper()
	var recs []asgen.Record
	for _, id := range ids {
		r, ok := asgen.ByID(id)
		if !ok {
			t.Fatalf("record %d missing", id)
		}
		recs = append(recs, r)
	}
	return recs
}

// TestArchiveRoundtripEquivalence is the acceptance test of the staged
// pipeline: for each AS, detection over the live in-memory measurement
// must deep-equal detection over the measurement written to an archive and
// read back — at every worker count — and the rendered tables and figures
// must be byte-identical between the two campaigns.
func TestArchiveRoundtripEquivalence(t *testing.T) {
	recs := testRecords(t, 2, 15, 40)
	for _, workers := range []int{1, 8} {
		cfg := testCfg()
		cfg.Workers = workers

		live := &Campaign{Cfg: cfg}
		replayed := &Campaign{Cfg: cfg}
		for _, rec := range recs {
			data, err := MeasureAS(context.Background(), rec, cfg)
			if err != nil {
				t.Fatalf("workers=%d AS#%d: measure: %v", workers, rec.ID, err)
			}

			var buf bytes.Buffer
			if err := archive.WriteData(&buf, data); err != nil {
				t.Fatalf("workers=%d AS#%d: write: %v", workers, rec.ID, err)
			}
			decoded, err := archive.ReadData(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("workers=%d AS#%d: read: %v", workers, rec.ID, err)
			}
			if !reflect.DeepEqual(decoded, data) {
				t.Fatalf("workers=%d AS#%d: archive.Data did not roundtrip", workers, rec.ID)
			}

			liveRes, err := Detect(context.Background(), data, cfg)
			if err != nil {
				t.Fatalf("workers=%d AS#%d: detect live: %v", workers, rec.ID, err)
			}
			replayRes, err := Detect(context.Background(), decoded, cfg)
			if err != nil {
				t.Fatalf("workers=%d AS#%d: detect replay: %v", workers, rec.ID, err)
			}
			if !reflect.DeepEqual(liveRes, replayRes) {
				t.Errorf("workers=%d AS#%d: live and replayed results diverged", workers, rec.ID)
			}
			live.ASes = append(live.ASes, liveRes)
			replayed.ASes = append(replayed.ASes, replayRes)
		}

		// Every table and figure of the paper must render byte-identically
		// from the replayed campaign.
		for _, e := range All {
			a, b := e.Run(context.Background(), live), e.Run(context.Background(), replayed)
			if a != b {
				t.Errorf("workers=%d: experiment %s rendered differently from replayed archives", workers, e.ID)
			}
		}
	}
}

// TestSnapshotResume pins the snapshot/resume contract: a campaign
// interrupted mid-run (complete shards for some ASes, a truncated shard
// for another, nothing for the rest) resumes into exactly the baseline
// output, re-measuring only what is missing or damaged and leaving
// complete shards untouched on disk.
func TestSnapshotResume(t *testing.T) {
	recs := testRecords(t, 2, 15, 40)
	cfg := testCfg()
	cfg.Workers = 4

	baseDir := filepath.Join(t.TempDir(), "base")
	baseline, statuses, err := RunSharded(context.Background(), recs, cfg, baseDir)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range statuses {
		if s != ShardMeasured {
			t.Errorf("fresh run: shard %d status %v, want ShardMeasured", i, s)
		}
	}

	// Simulate an interrupted campaign in a new snapshot dir: AS 2's shard
	// completed, AS 15's writer was cut off mid-stream, AS 40 never started.
	resumeDir := filepath.Join(t.TempDir(), "resume")
	if err := os.MkdirAll(resumeDir, 0o755); err != nil {
		t.Fatal(err)
	}
	copyShard := func(rec asgen.Record, truncate bool) {
		raw, err := os.ReadFile(ShardPath(baseDir, rec))
		if err != nil {
			t.Fatal(err)
		}
		if truncate {
			raw = raw[:len(raw)*2/3]
		}
		if err := os.WriteFile(ShardPath(resumeDir, rec), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	copyShard(recs[0], false)
	copyShard(recs[1], true)

	completeBefore, err := os.ReadFile(ShardPath(resumeDir, recs[0]))
	if err != nil {
		t.Fatal(err)
	}

	resumed, statuses, err := RunSharded(context.Background(), recs, cfg, resumeDir)
	if err != nil {
		t.Fatal(err)
	}
	want := []ShardStatus{ShardResumed, ShardMeasured, ShardMeasured}
	for i, s := range statuses {
		if s != want[i] {
			t.Errorf("resume: shard %d status %v, want %v", i, s, want[i])
		}
	}

	// The resumed campaign must match the uninterrupted baseline exactly —
	// per-AS results and every rendered experiment.
	if len(resumed.ASes) != len(baseline.ASes) {
		t.Fatalf("AS count diverged: %d vs %d", len(resumed.ASes), len(baseline.ASes))
	}
	for i := range baseline.ASes {
		if !reflect.DeepEqual(resumed.ASes[i], baseline.ASes[i]) {
			t.Errorf("AS#%d: resumed result diverged from baseline", baseline.ASes[i].Record.ID)
		}
	}
	for _, e := range All {
		if a, b := e.Run(context.Background(), baseline), e.Run(context.Background(), resumed); a != b {
			t.Errorf("experiment %s rendered differently after resume", e.ID)
		}
	}

	// The complete shard was replayed, not rewritten.
	completeAfter, err := os.ReadFile(ShardPath(resumeDir, recs[0]))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(completeBefore, completeAfter) {
		t.Error("complete shard was rewritten on resume")
	}
	// The truncated shard was replaced by a complete one, byte-identical to
	// the baseline's (measurement is deterministic).
	fixed, err := os.ReadFile(ShardPath(resumeDir, recs[1]))
	if err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(ShardPath(baseDir, recs[1]))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fixed, orig) {
		t.Error("re-measured shard diverged from baseline shard bytes")
	}

	// A second resume over the now-complete dir replays everything.
	again, statuses, err := RunSharded(context.Background(), recs, cfg, resumeDir)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range statuses {
		if s != ShardResumed {
			t.Errorf("second resume: shard %d status %v, want ShardResumed", i, s)
		}
	}
	for i := range baseline.ASes {
		if !reflect.DeepEqual(again.ASes[i], baseline.ASes[i]) {
			t.Errorf("AS#%d: second resume diverged", baseline.ASes[i].Record.ID)
		}
	}
}

// TestRunShardedRemeasuresRetiredV1Shard: a shard from before the v1
// format was retired fails with ErrBadMagic, and the runner re-measures it
// instead of failing the AS — so an old snapshot directory resumes to the
// current result, and the shard is rewritten byte-identical to a fresh
// run's.
func TestRunShardedRemeasuresRetiredV1Shard(t *testing.T) {
	recs := testRecords(t, 2)
	cfg := testCfg()

	freshDir := filepath.Join(t.TempDir(), "fresh")
	baseline, _, err := RunSharded(context.Background(), recs, cfg, freshDir)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := os.ReadFile(ShardPath(freshDir, recs[0]))
	if err != nil {
		t.Fatal(err)
	}

	oldDir := t.TempDir()
	old := append([]byte("arest.archive.v1\n"), fresh[len(archive.Magic):]...)
	if err := os.WriteFile(ShardPath(oldDir, recs[0]), old, 0o644); err != nil {
		t.Fatal(err)
	}
	resumed, statuses, err := RunSharded(context.Background(), recs, cfg, oldDir)
	if err != nil {
		t.Fatal(err)
	}
	if statuses[0] != ShardMeasured {
		t.Errorf("v1 shard status %v, want ShardMeasured", statuses[0])
	}
	if len(resumed.Failed) != 0 {
		t.Errorf("v1 shard failed the AS: %v", resumed.Failed)
	}
	rewritten, err := os.ReadFile(ShardPath(oldDir, recs[0]))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rewritten, fresh) {
		t.Error("re-measured shard diverged from a fresh run's shard bytes")
	}
	if !reflect.DeepEqual(resumed.ASes, baseline.ASes) {
		t.Error("re-measured result diverged from a fresh run's")
	}
}

// TestShardPath pins the shard naming scheme (resume depends on it).
func TestShardPath(t *testing.T) {
	rec := asgen.Record{ID: 7}
	if got, want := ShardPath("snap", rec), filepath.Join("snap", "as-007.arest"); got != want {
		t.Errorf("ShardPath = %q, want %q", got, want)
	}
}

// TestRunShardedReportsUnreadableShard ensures a shard failing for a
// non-format reason (here: it is a directory) surfaces as a contained,
// stage-attributed failure rather than a silent re-measure — and no
// longer takes the rest of the campaign down with it.
func TestRunShardedReportsUnreadableShard(t *testing.T) {
	recs := testRecords(t, 2, 15)
	dir := t.TempDir()
	if err := os.MkdirAll(ShardPath(dir, recs[0]), 0o755); err != nil {
		t.Fatal(err)
	}
	c, statuses, err := RunSharded(context.Background(), recs, testCfg(), dir)
	if err != nil {
		t.Fatalf("RunSharded: %v", err)
	}
	if len(c.Failed) != 1 {
		t.Fatalf("Failed = %v, want exactly the directory-shaped shard", c.Failed)
	}
	f := c.Failed[0]
	if f.Record.ID != recs[0].ID {
		t.Errorf("failed AS#%d, want AS#%d", f.Record.ID, recs[0].ID)
	}
	if f.Stage != StageArchive {
		t.Errorf("failure stage %v, want StageArchive", f.Stage)
	}
	if fmt.Sprint(f.Err) == "" {
		t.Error("empty error")
	}
	if statuses[0] != ShardFailed {
		t.Errorf("statuses[0] = %v, want ShardFailed", statuses[0])
	}
	if len(c.ASes) != 1 || c.ASes[0].Record.ID != recs[1].ID {
		t.Errorf("healthy AS did not complete: %v", c.ASes)
	}
}
