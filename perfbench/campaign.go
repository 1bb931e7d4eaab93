package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"

	"arest/internal/archive"
	"arest/internal/asgen"
	"arest/internal/exp"
)

// goldenTraces is the campaign's trace count at defaultSeed.
const goldenTraces = 12032

// campaign is the users' real job: the default campaign over the 41
// analysed ASes, then every experiment rendered, exactly what
// `go run ./cmd/experiments` does. Alias IP-ID sampling dominates it.
type campaign struct {
	b       *bench
	records []asgen.Record
	cfg     exp.Config
	ref     output
}

func newCampaign(b *bench) workload {
	return &campaign{b: b, records: asgen.Analyzed(), cfg: campaignConfig(b.seed)}
}

// campaignConfig is exp.DefaultConfig at the run's seed.
func campaignConfig(seed int64) exp.Config {
	cfg := exp.DefaultConfig()
	cfg.Seed = seed
	return cfg
}

// render writes every experiment except those in skip, framed as
// cmd/experiments frames them on standard output.
func render(ctx context.Context, c *exp.Campaign, skip string) []byte {
	var buf bytes.Buffer
	for _, e := range exp.All {
		if e.ID == skip {
			continue
		}
		fmt.Fprintf(&buf, "=== %s — %s ===\npaper: %s\n\n%s\n", e.ID, e.Title, e.Paper, e.Run(ctx, c))
	}
	return buf.Bytes()
}

// campaignOutput reduces a finished campaign and its transcript.
func campaignOutput(c *exp.Campaign, attempted int, transcript []byte) output {
	out := output{ases: attempted, failed: len(c.Failed), transcript: transcript, digest: sha256.Sum256(transcript)}
	for _, r := range c.ASes {
		out.traces += r.TracesSent
	}
	return out
}

func (w *campaign) setup(ctx context.Context) error {
	ref, err := w.pass(ctx, w.b.workers)
	if err != nil {
		return err
	}
	if w.b.seed == defaultSeed {
		if ref.traces != goldenTraces {
			return checkf("%d traces at the default seed, want %d", ref.traces, goldenTraces)
		}
		if !bytes.Equal(ref.transcript, w.b.golden) {
			return checkf("campaign transcript differs from %s", goldenPath)
		}
	}
	w.ref = ref
	return nil
}

func (w *campaign) pass(ctx context.Context, workers int) (output, error) {
	cfg := w.cfg
	cfg.Workers = workers
	c, err := exp.Run(ctx, w.records, cfg)
	if err != nil {
		return output{ases: len(w.records)}, err
	}
	return campaignOutput(c, len(w.records), render(ctx, c, "")), nil
}

func (w *campaign) check(out output) error { return checkCommon(out, w.ref) }

func (w *campaign) tracedPass(ctx context.Context, t *tracer) (output, error) {
	cfg := w.cfg
	cfg.Workers = 1
	c := &exp.Campaign{Cfg: cfg}
	for _, rec := range w.records {
		res, err := runASTraced(ctx, t, rec, cfg)
		if err != nil {
			return output{ases: len(w.records)}, err
		}
		c.ASes = append(c.ASes, res)
	}
	t.do("exp.merge", func() { c.MergedAgg() })
	var transcript []byte
	t.do("exp.render", func() { transcript = render(ctx, c, "") })
	return campaignOutput(c, len(w.records), transcript), nil
}

// runASTraced mirrors exp.RunAS for one AS under spans: the measurement,
// the trace-failure budget, then Detect. The measured data must encode to
// the bytes exp.MeasureAS's data encodes to; that check runs outside the
// spans.
func runASTraced(ctx context.Context, t *tracer, rec asgen.Record, cfg exp.Config) (*exp.ASResult, error) {
	var res *exp.ASResult
	var data *archive.Data
	var err error
	t.do(asSpan, func() {
		data, err = measureTraced(ctx, t, rec, cfg)
		if err != nil {
			return
		}
		if err = cfg.TraceBudgetErr(data); err != nil {
			return
		}
		t.do("exp.detect", func() { res, err = exp.Detect(ctx, data, cfg) })
	})
	if err != nil {
		return nil, fmt.Errorf("AS#%d: %w", rec.ID, err)
	}
	if err := sameArchive(ctx, rec, cfg, data); err != nil {
		return nil, err
	}
	return res, nil
}

func (w *campaign) score(ctx context.Context) (accuracy, error) {
	return scoreMeasured(ctx, w.records, w.cfg, w.b.workers)
}

func (w *campaign) close() {}
