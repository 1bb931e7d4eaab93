package exp

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"arest/internal/archive"
	"arest/internal/asgen"
)

// ShardPath names the archive shard for one catalogue record inside a
// snapshot directory.
func ShardPath(dir string, rec asgen.Record) string {
	return filepath.Join(dir, fmt.Sprintf("as-%03d.arest", rec.ID))
}

// ShardStatus reports what RunSharded did for one AS.
type ShardStatus int

const (
	// ShardMeasured: no usable shard existed; the AS was measured and a
	// fresh archive written.
	ShardMeasured ShardStatus = iota
	// ShardResumed: a complete shard existed and was replayed without
	// re-measuring.
	ShardResumed
	// ShardFailed: the AS was quarantined (see Campaign.Failed). Its shard
	// may still exist on disk — a measurement over the trace-failure
	// budget is persisted before the budget verdict, so the degraded
	// evidence survives and a resume re-derives the same failure.
	ShardFailed
	// ShardInterrupted: the campaign was cancelled before this AS's shard
	// was complete. Nothing (or only a fully-written shard from a previous
	// run) is on disk for it; a resumed campaign picks it up as if it had
	// never been attempted.
	ShardInterrupted
)

func (s ShardStatus) String() string {
	switch s {
	case ShardMeasured:
		return "measured"
	case ShardResumed:
		return "resumed"
	case ShardFailed:
		return "failed"
	case ShardInterrupted:
		return "interrupted"
	default:
		return "?"
	}
}

// RunSharded executes the campaign in snapshot/resume mode: each AS's
// measurement is persisted as a per-AS archive shard under dir, and a
// restart skips every AS whose shard is already complete — an interrupted
// campaign resumes where it stopped and still produces output identical
// to an uninterrupted run, because analysis is always a replay of the
// shard on disk (never of in-memory measurement state).
//
// A shard that is missing, truncated (interrupted writer), or corrupt is
// re-measured and atomically rewritten; statuses (parallel to the kept
// catalogue records, successful or not) say which path each AS took.
//
// Failures are contained per AS, as in Run: an errored AS gets status
// ShardFailed and lands in Campaign.Failed, the rest of the campaign
// completes, and the error return is reserved for campaign-level failures
// (the snapshot directory itself).
//
// Cancelling ctx interrupts the campaign and upholds the resume invariant:
// shards are written atomically only after a complete measurement, so a
// cancelled run leaves exactly the complete shards on disk — bit-identical
// to an uninterrupted run's — and nothing else. Interrupted ASes get
// status ShardInterrupted (not Failed); a resumed RunSharded over the same
// dir completes them and yields a Campaign deep-equal to one that was
// never interrupted.
func RunSharded(ctx context.Context, records []asgen.Record, cfg Config, dir string) (*Campaign, []ShardStatus, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("snapshot dir: %w", err)
	}
	return runCampaign(ctx, records, cfg, func(ctx context.Context, rec asgen.Record, cfg Config) (*ASResult, ShardStatus, error) {
		return runShard(ctx, rec, cfg, dir)
	})
}

// runShard loads-or-measures one AS's shard and analyzes it. Errors carry
// their pipeline stage; the trace-failure budget is applied to the shard
// as read from disk on both paths, so a degraded shard fails (or passes)
// identically whether it was just measured or resumed from an earlier run.
//
// The cancellation invariant lives here: the shard write is atomic
// (archive.WriteFile's temp+rename) and happens only after MeasureAS
// returned a complete measurement, so an interrupt can never leave a
// partial shard that a resume would mistake for evidence.
func runShard(ctx context.Context, rec asgen.Record, cfg Config, dir string) (*ASResult, ShardStatus, error) {
	path := ShardPath(dir, rec)
	res, err := DetectStreamFile(ctx, path, cfg)
	switch {
	case err == nil:
		return res, ShardResumed, nil
	case errors.Is(err, fs.ErrNotExist),
		errors.Is(err, archive.ErrTruncated),
		errors.Is(err, archive.ErrCorrupt),
		errors.Is(err, archive.ErrBadMagic):
		// Fall through to re-measure: the shard never finished, was
		// damaged, or predates format v2 (bad magic); WriteFile's
		// temp+rename keeps this crash-safe too.
	default:
		return nil, 0, shardErr(path, err)
	}

	data, err := MeasureAS(ctx, rec, cfg)
	if err != nil {
		return nil, 0, stageErr(StageMeasure, err)
	}
	// Persist the shard before the budget verdict: a measurement over
	// budget is still evidence, and writing it first means a resume reads
	// the same degraded data and re-derives the same quarantine decision
	// instead of silently re-measuring. The budget itself is applied by the
	// streaming replay below, the moment the degradation record arrives.
	if err := archive.WriteFile(path, data); err != nil {
		return nil, 0, stageErr(StageArchive, fmt.Errorf("shard %s: %w", path, err))
	}
	// Analyze the written shard, not the in-memory measurement: every
	// campaign output then provably flows through the archive codec — and
	// through the same bounded-memory fold a resume would use.
	res, err = DetectStreamFile(ctx, path, cfg)
	if err != nil {
		return nil, 0, shardErr(path, err)
	}
	return res, ShardMeasured, nil
}

// shardErr attributes a streaming-replay error: a budget verdict (trace
// failures or plan size) is already a StageMeasure policy decision and
// passes through untouched (so resumed and just-measured shards fail with
// identical errors), and an interrupt passes through so cancellation never
// masquerades as a damaged shard; anything else is an archive-stage
// failure tagged with the shard path.
func shardErr(path string, err error) error {
	var tbe *TraceBudgetError
	var abe *ASBudgetError
	if errors.As(err, &tbe) || errors.As(err, &abe) || IsInterrupt(err) {
		return err
	}
	return stageErr(StageArchive, fmt.Errorf("shard %s: %w", path, err))
}
