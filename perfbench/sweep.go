package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"hash/crc32"

	"arest/internal/archive"
	"arest/internal/asgen"
	"arest/internal/exp"
	"arest/internal/par"
)

// sweepFlows is the sweep's Paris flows per target (tntsim -flows).
const sweepFlows = 4

// sweep is the tntsim path over the same 41 ASes: four Paris flows per
// target and no alias resolution, each AS measured and encoded into an
// in-memory archive sink. Tracing and the simulator dominate it, so it
// shows wire-path and encoder changes and bypasses the alias stage.
type sweep struct {
	b       *bench
	records []asgen.Record
	cfg     exp.Config
	ref     output
}

func newSweep(b *bench) workload {
	cfg := campaignConfig(b.seed)
	cfg.FlowsPerTarget = sweepFlows
	cfg.AliasCandidateCap = 0
	return &sweep{b: b, records: asgen.Analyzed(), cfg: cfg}
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// archiveSink counts and checksums the archive bytes written to it, so a
// pass encodes without touching the disk.
type archiveSink struct {
	n   int64
	crc uint32
}

func (s *archiveSink) Write(p []byte) (int, error) {
	s.n += int64(len(p))
	s.crc = crc32.Update(s.crc, castagnoli, p)
	return len(p), nil
}

// sweepAS is one AS's share of a sweep pass.
type sweepAS struct {
	sink        archiveSink
	traces      int
	quarantined bool
}

// sweepOutput reduces the per-AS results; the digest covers every AS's
// archive length and checksum.
func sweepOutput(per []sweepAS) output {
	out := output{ases: len(per)}
	h := sha256.New()
	for _, a := range per {
		out.traces += a.traces
		q := uint32(0)
		if a.quarantined {
			out.failed++
			q = 1
		}
		var rec [16]byte
		binary.LittleEndian.PutUint64(rec[0:], uint64(a.sink.n))
		binary.LittleEndian.PutUint32(rec[8:], a.sink.crc)
		binary.LittleEndian.PutUint32(rec[12:], q)
		h.Write(rec[:])
	}
	h.Sum(out.digest[:0])
	return out
}

func (w *sweep) setup(ctx context.Context) error {
	ref, err := w.pass(ctx, w.b.workers)
	if err != nil {
		return err
	}
	if w.b.seed == defaultSeed && ref.traces != sweepFlows*goldenTraces {
		return checkf("%d traces at the default seed, want %d", ref.traces, sweepFlows*goldenTraces)
	}
	w.ref = ref
	return nil
}

func (w *sweep) pass(ctx context.Context, workers int) (output, error) {
	cfg := w.cfg
	cfg.Workers = workers
	per := make([]sweepAS, len(w.records))
	errs := make([]error, len(w.records))
	err := par.ForEach(ctx, workers, len(w.records), func(i int) {
		data, err := exp.MeasureAS(ctx, w.records[i], cfg)
		if err != nil {
			errs[i] = err
			return
		}
		// Like cmd/tntsim, a measurement over the trace-failure budget is
		// still written.
		per[i].traces = len(data.Traces())
		per[i].quarantined = cfg.TraceBudgetErr(data) != nil
		errs[i] = archive.WriteData(&per[i].sink, data)
	})
	if err == nil {
		err = firstErr(errs)
	}
	if err != nil {
		return output{ases: len(w.records)}, err
	}
	return sweepOutput(per), nil
}

func (w *sweep) check(out output) error { return checkCommon(out, w.ref) }

func (w *sweep) tracedPass(ctx context.Context, t *tracer) (output, error) {
	cfg := w.cfg
	cfg.Workers = 1
	per := make([]sweepAS, len(w.records))
	for i, rec := range w.records {
		var data *archive.Data
		var err error
		t.do(asSpan, func() {
			data, err = measureTraced(ctx, t, rec, cfg)
			if err != nil {
				return
			}
			per[i].traces = len(data.Traces())
			per[i].quarantined = cfg.TraceBudgetErr(data) != nil
			t.do("archive.encode", func() { err = archive.WriteData(&per[i].sink, data) })
		})
		if err != nil {
			return output{ases: len(w.records)}, err
		}
		t.count("archive.bytes", int(per[i].sink.n))
		if err := sameArchive(ctx, rec, cfg, data); err != nil {
			return output{ases: len(w.records)}, err
		}
	}
	return sweepOutput(per), nil
}

func (w *sweep) score(ctx context.Context) (accuracy, error) {
	return scoreMeasured(ctx, w.records, w.cfg, w.b.workers)
}

func (w *sweep) close() {}
