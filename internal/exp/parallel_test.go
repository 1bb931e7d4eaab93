package exp

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"arest/internal/archive"
	"arest/internal/asgen"
	"arest/internal/obs"
)

// TestCampaignParallelMatchesSequential runs the same campaign fully
// sequentially (Workers: 1) and with an 8-worker fan-out and requires
// deep-equal results: the measured traces, fingerprints, aliases, borders
// and ground truth, the folded aggregates — and identical metric-counter
// snapshots, pinning the obs determinism contract. Under -race this
// exercises every parallel stage — the AS pool, trace sweeps, fingerprint
// echoes, conflict-ordered alias probing, and detection.
func TestCampaignParallelMatchesSequential(t *testing.T) {
	var recs []asgen.Record
	for _, id := range []int{2, 15, 28, 40} {
		r, ok := asgen.ByID(id)
		if !ok {
			t.Fatalf("record %d missing", id)
		}
		recs = append(recs, r)
	}
	regs := map[int]*obs.Registry{}
	run := func(workers int) *Campaign {
		cfg := testCfg()
		cfg.Workers = workers
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

	// The deterministic section (counters, gauges, histograms) must be
	// bit-identical across worker counts; spans are wall-clock and excluded.
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
		if !reflect.DeepEqual(seqSnap.Gauges, parSnap.Gauges) {
			t.Errorf("gauges diverged: %v vs %v", seqSnap.Gauges, parSnap.Gauges)
		}
		if !reflect.DeepEqual(seqSnap.Histograms, parSnap.Histograms) {
			t.Errorf("histograms diverged")
		}
	}
	// The snapshot must cover every instrumented stage.
	for _, stage := range []string{"netsim.", "probe.", "alias.", "fingerprint.", "exp."} {
		found := false
		for k := range seqSnap.Counters {
			if strings.HasPrefix(k, stage) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no counters recorded for stage %q", stage)
		}
	}

	if len(seq.ASes) != len(parl.ASes) {
		t.Fatalf("AS count diverged: %d vs %d", len(seq.ASes), len(parl.ASes))
	}
	for i := range seq.ASes {
		if sp, pp := seq.ASes[i], parl.ASes[i]; !reflect.DeepEqual(sp, pp) {
			t.Errorf("AS#%d: results diverged", sp.Record.ID)
		}
	}

	// The measurement the fold consumed must match too, layer by layer,
	// so a divergence names the stage that broke.
	for _, rec := range recs {
		var data [2]*archive.Data
		for i, workers := range []int{1, 8} {
			cfg := testCfg()
			cfg.Workers = workers
			d, err := MeasureAS(context.Background(), rec, cfg)
			if err != nil {
				t.Fatalf("AS#%d workers=%d: %v", rec.ID, workers, err)
			}
			data[i] = d
		}
		s, p := data[0], data[1]
		for _, layer := range []struct {
			name string
			same bool
		}{
			{"traces", reflect.DeepEqual(s.VPs, p.VPs) && reflect.DeepEqual(s.PerVP, p.PerVP)},
			{"fingerprints", reflect.DeepEqual(s.SNMP, p.SNMP) && reflect.DeepEqual(s.TTL, p.TTL)},
			{"aliases", reflect.DeepEqual(s.Aliases, p.Aliases)},
			{"borders", reflect.DeepEqual(s.Borders, p.Borders)},
			{"ground truth", reflect.DeepEqual(s.Meta, p.Meta) && reflect.DeepEqual(s.SREnabled, p.SREnabled)},
		} {
			if !layer.same {
				t.Errorf("AS#%d: measured %s diverged", rec.ID, layer.name)
			}
		}
		if !reflect.DeepEqual(s, p) {
			t.Errorf("AS#%d: measurement diverged", rec.ID)
		}
	}
}
