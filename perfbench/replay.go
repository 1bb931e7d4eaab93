package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"

	"arest/internal/archive"
	"arest/internal/asgen"
	"arest/internal/exp"
	"arest/internal/par"
)

// replaySkip is the one experiment that is not a pure query over the
// campaign: it measures AS 28 again.
const replaySkip = "ext-longitudinal"

// replay resumes the campaign's shards, written in set-up, through
// exp.RunSharded: every shard is replayed through the streaming Detect
// fold, merged, and every pure-query experiment rendered. Archive decoding
// dominates it; the simulator does no work.
type replay struct {
	b       *bench
	records []asgen.Record
	cfg     exp.Config
	dir     string
	// live is the in-memory (never encoded) analysis of the measurement
	// the shards hold; every replay must reproduce it.
	live output
}

func newReplay(b *bench) workload {
	return &replay{b: b, records: asgen.Analyzed(), cfg: campaignConfig(b.seed)}
}

// setup measures the campaign into fresh shards and analyses the same
// measurements in memory, as exp.RunAS does, for the live reference.
func (w *replay) setup(ctx context.Context) error {
	w.close()
	dir, err := os.MkdirTemp(scratchDir, "replay-shards-")
	if err != nil {
		return err
	}
	w.dir = dir
	cfg := w.cfg
	cfg.Workers = w.b.workers
	results := make([]*exp.ASResult, len(w.records))
	errs := make([]error, len(w.records))
	err = par.ForEach(ctx, cfg.Workers, len(w.records), func(i int) {
		rec := w.records[i]
		data, err := exp.MeasureAS(ctx, rec, cfg)
		if err == nil {
			err = archive.WriteFile(exp.ShardPath(dir, rec), data)
		}
		if err == nil {
			err = cfg.TraceBudgetErr(data)
		}
		if err == nil {
			results[i], err = exp.Detect(ctx, data, cfg)
		}
		errs[i] = err
	})
	if err == nil {
		err = firstErr(errs)
	}
	if err != nil {
		return err
	}
	live := &exp.Campaign{Cfg: cfg, ASes: results}
	transcript := render(ctx, live, replaySkip)
	if w.b.seed == defaultSeed {
		if want := withoutSection(w.b.golden, replaySkip); string(transcript) != want {
			return checkf("live transcript differs from %s", goldenPath)
		}
	}
	w.live = campaignOutput(live, len(w.records), transcript)
	w.live.agg = live.MergedAgg()
	if w.b.seed == defaultSeed && w.live.traces != goldenTraces {
		return checkf("%d traces at the default seed, want %d", w.live.traces, goldenTraces)
	}
	return nil
}

// withoutSection drops one experiment's section from a transcript.
func withoutSection(transcript []byte, id string) string {
	s := string(transcript)
	start := strings.Index(s, "=== "+id+" — ")
	if start < 0 {
		return s
	}
	end := strings.Index(s[start:], "\n=== ")
	if end < 0 {
		return s[:start]
	}
	return s[:start] + s[start+end+1:]
}

func (w *replay) pass(ctx context.Context, workers int) (output, error) {
	cfg := w.cfg
	cfg.Workers = workers
	c, statuses, err := exp.RunSharded(ctx, w.records, cfg, w.dir)
	if err != nil {
		return output{ases: len(w.records)}, err
	}
	for i, s := range statuses {
		if s != exp.ShardResumed {
			return output{ases: len(w.records)}, checkf("AS#%d shard %s, want resumed", w.records[i].ID, s)
		}
	}
	agg := c.MergedAgg()
	out := campaignOutput(c, len(w.records), render(ctx, c, replaySkip))
	out.agg = agg
	return out, nil
}

func (w *replay) check(out output) error {
	if err := checkCommon(out, w.live); err != nil {
		return err
	}
	if !reflect.DeepEqual(out.agg, w.live.agg) {
		return checkf("replayed merged Agg differs from the live campaign's")
	}
	return nil
}

// nopVisitor decodes every record and keeps nothing: it times the archive
// decoder alone.
type nopVisitor struct{}

func (nopVisitor) Meta(archive.Meta) error                     { return nil }
func (nopVisitor) VP(archive.VPRecord) error                   { return nil }
func (nopVisitor) Trace(archive.TraceRecord) error             { return nil }
func (nopVisitor) Fingerprint(archive.FingerprintRecord) error { return nil }
func (nopVisitor) AliasSet(archive.AliasSetRecord) error       { return nil }
func (nopVisitor) Border(archive.BorderRecord) error           { return nil }
func (nopVisitor) SREnabled(archive.SREnabledRecord) error     { return nil }
func (nopVisitor) Degraded(archive.Degraded) error             { return nil }

// decodeShard streams one shard into a nopVisitor and returns its size.
func decodeShard(path string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if err := archive.Stream(f, nopVisitor{}); err != nil {
		return 0, fmt.Errorf("decode %s: %w", path, err)
	}
	return f.Seek(0, io.SeekCurrent)
}

// tracedPass mirrors exp.RunSharded's resumed path at one worker: every
// shard through DetectStreamFile, then the merge and the render. Before
// each shard's span it decodes the shard once alone, so that the decoder's
// share of DetectStreamFile can be separated.
func (w *replay) tracedPass(ctx context.Context, t *tracer) (output, error) {
	cfg := w.cfg
	cfg.Workers = 1
	c := &exp.Campaign{Cfg: cfg}
	for _, rec := range w.records {
		path := exp.ShardPath(w.dir, rec)
		var n int64
		var err error
		t.do("archive.decode", func() { n, err = decodeShard(path) })
		if err != nil {
			return output{ases: len(w.records)}, err
		}
		t.count("archive.decode_bytes", int(n))
		var res *exp.ASResult
		t.do(asSpan, func() {
			t.do("exp.detect", func() { res, err = exp.DetectStreamFile(ctx, path, cfg) })
		})
		if err != nil {
			return output{ases: len(w.records)}, fmt.Errorf("AS#%d: %w", rec.ID, err)
		}
		c.ASes = append(c.ASes, res)
	}
	var agg *exp.Agg
	t.do("exp.merge", func() { agg = c.MergedAgg() })
	var transcript []byte
	t.do("exp.render", func() { transcript = render(ctx, c, replaySkip) })
	out := campaignOutput(c, len(w.records), transcript)
	out.agg = agg
	return out, nil
}

// score replays each shard into memory and scores it.
func (w *replay) score(ctx context.Context) (accuracy, error) {
	cfg := w.cfg
	cfg.Workers = 1
	return scoreEach(ctx, w.b.workers, len(w.records), func(i int) (*archive.Data, error) {
		return archive.ReadFile(exp.ShardPath(w.dir, w.records[i]))
	}, cfg)
}

// close removes the shards.
func (w *replay) close() {
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}
