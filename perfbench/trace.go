package main

import (
	"bytes"
	"context"
	"fmt"
	"net/netip"
	"sort"
	"time"

	"arest/internal/alias"
	"arest/internal/anaximander"
	"arest/internal/archive"
	"arest/internal/asgen"
	"arest/internal/bdrmap"
	"arest/internal/exp"
	"arest/internal/fingerprint"
	"arest/internal/probe"
)

// span is one timed call into a layer. Probe exchanges with the simulator
// are too many to keep one span each; they are kept as one aggregated
// netsim child of the span they were sent under.
type span struct {
	name       string
	parent     int // index into tracer.spans, -1 for a root
	start, end time.Duration
	netsim     time.Duration
	sends      int
	replies    int
}

// asSpan names the per-AS container span; the spans under it belong to
// layers.
const asSpan = "exp.as"

// tracer keeps a traced pass's spans and counts in memory. It is used by
// one goroutine at a time: traced passes run at one worker, where every
// pipeline stage runs its loop on the calling goroutine.
type tracer struct {
	epoch  time.Time
	spans  []span
	stack  []int
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counts: map[string]float64{}}
}

// do runs fn inside a span named name, a child of the innermost open span.
func (t *tracer) do(name string, fn func()) {
	id := len(t.spans)
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.epoch)})
	t.stack = append(t.stack, id)
	fn()
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].end = time.Since(t.epoch)
}

// count adds v to the named counter.
func (t *tracer) count(name string, v int) { t.counts[name] += float64(v) }

// send records one simulator exchange under the innermost open span.
func (t *tracer) send(d time.Duration, replied bool) {
	s := &t.spans[t.stack[len(t.stack)-1]]
	s.netsim += d
	s.sends++
	if replied {
		s.replies++
	}
}

// tracedConn times every exchange of the probe.Conn it wraps, the seam
// exp.Config.WrapConn also uses.
type tracedConn struct {
	inner probe.Conn
	t     *tracer
}

func (c tracedConn) Exchange(ctx context.Context, src netip.Addr, wire []byte) ([]byte, float64, error) {
	start := time.Now()
	reply, rtt, err := c.inner.Exchange(ctx, src, wire)
	c.t.send(time.Since(start), reply != nil)
	return reply, rtt, err
}

// measureTraced mirrors exp.MeasureAS at one worker, making the same calls
// in the same order with a span around each layer's calls. sameArchive
// checks that its data encodes to exp.MeasureAS's bytes, so the mirror
// cannot drift from the program unnoticed.
func measureTraced(ctx context.Context, t *tracer, rec asgen.Record, cfg exp.Config) (*archive.Data, error) {
	var dep asgen.Deployment
	var w *asgen.World
	t.do("asgen.build", func() {
		dep = asgen.DeploymentFor(rec, cfg.Seed)
		if cfg.MaxRouters > 0 && dep.Routers > cfg.MaxRouters {
			dep.Routers = cfg.MaxRouters
		}
		w = asgen.Build(rec, dep, cfg.NumVPs, cfg.Seed)
		w.Net.Instrument(cfg.Metrics)
	})
	t.count("asgen.routers", len(w.Net.Routers()))
	var rib *anaximander.RIB
	var plan *anaximander.Plan
	t.do("anaximander.plan", func() {
		rib = anaximander.CollectRIB(w)
		plan = anaximander.BuildPlan(rib, rec.ASN, anaximander.Options{MaxTargets: cfg.MaxTargets})
	})
	t.count("anaximander.targets", len(plan.Targets))

	data := &archive.Data{
		Meta: archive.Meta{
			Format:         archive.FormatV2,
			Record:         rec,
			Dep:            dep,
			Seed:           cfg.Seed,
			NumVPs:         cfg.NumVPs,
			MaxTargets:     cfg.MaxTargets,
			FlowsPerTarget: cfg.FlowsPerTarget,
		},
	}
	conn := tracedConn{inner: probe.NetsimConn{Net: w.Net}, t: t}
	flows := max(1, cfg.FlowsPerTarget)
	data.VPs = make([]netip.Addr, len(w.VPs))
	data.PerVP = make([][]*probe.Trace, len(w.VPs))
	shuffled := make([][]netip.Addr, len(w.VPs))
	jobs := 0
	for vpIdx, vp := range w.VPs {
		shuffled[vpIdx] = plan.Shuffled(vpIdx)
		data.VPs[vpIdx] = vp
		data.PerVP[vpIdx] = make([]*probe.Trace, len(shuffled[vpIdx])*flows)
		jobs += len(data.PerVP[vpIdx])
	}
	if err := cfg.ASBudgetErr(jobs); err != nil {
		return nil, err
	}
	for vpIdx, vp := range w.VPs {
		tc := probe.NewTracer(conn, vp)
		for i, tgt := range shuffled[vpIdx] {
			for flow := 0; flow < flows; flow++ {
				var tr *probe.Trace
				var err error
				t.do("probe.trace", func() { tr, err = tc.Trace(ctx, tgt, uint16(flow)) })
				if err != nil {
					return nil, fmt.Errorf("trace %s from %s: %w", tgt, vp, err)
				}
				data.PerVP[vpIdx][i*flows+flow] = tr
			}
		}
	}
	traces := data.Traces()
	byVP := make([]int, len(data.PerVP))
	failedTraces := 0
	for vpIdx, ts := range data.PerVP {
		for _, tr := range ts {
			if tr.Failed() {
				failedTraces++
				byVP[vpIdx]++
			}
		}
	}
	if failedTraces > 0 {
		data.Degraded = &archive.Degraded{FailedTraces: failedTraces, TotalTraces: len(traces), ByVP: byVP}
	}

	pinger := probe.NewTracer(conn, w.VPs[0])
	var err error
	t.do("fingerprint.collect", func() {
		data.TTL, err = fingerprint.CollectTTL(ctx, traces, pinger, 1, cfg.Metrics)
		data.SNMP = fingerprint.SNMPDataset(w.Net)
	})
	if err != nil {
		return nil, err
	}
	t.count("fingerprint.classified", len(data.TTL))

	if cfg.AliasCandidateCap > 0 {
		t.do("alias.resolve", func() {
			seen := map[netip.Addr]bool{}
			var cands []netip.Addr
			for _, tr := range traces {
				for i := range tr.Hops {
					h := &tr.Hops[i]
					if h.Responded() && !seen[h.Addr] {
						seen[h.Addr] = true
						cands = append(cands, h.Addr)
					}
				}
			}
			sort.Slice(cands, func(i, j int) bool { return cands[i].Less(cands[j]) })
			if len(cands) > cfg.AliasCandidateCap {
				cands = cands[:cfg.AliasCandidateCap]
			}
			t.count("alias.candidates", len(cands))
			acfg := alias.DefaultConfig()
			acfg.Workers = 1
			acfg.Metrics = cfg.Metrics
			acfg.ConflictKey = func(a netip.Addr) (uint64, bool) {
				r, ok := w.Net.RouterByAddr(a)
				if !ok {
					return 0, false
				}
				return uint64(r.ID), true
			}
			data.Aliases, err = alias.Resolve(ctx, cands, pinger, acfg)
		})
		if err != nil {
			return nil, fmt.Errorf("alias resolution: %w", err)
		}
		if len(data.Aliases) == 0 {
			data.Aliases = nil
		}
		t.count("alias.sets", len(data.Aliases))
	}
	t.do("bdrmap.annotate", func() { data.Borders = bdrmap.Annotate(traces, rib, data.Aliases) })

	t.do("asgen.truth", func() {
		for _, r := range w.Routers {
			if w.SRRouter[r.ID] {
				data.SREnabled = append(data.SREnabled, r.Interfaces()...)
			}
		}
		sort.Slice(data.SREnabled, func(i, j int) bool { return data.SREnabled[i].Less(data.SREnabled[j]) })
	})
	return data, nil
}

// sameArchive checks that got encodes to the same archive bytes as
// exp.MeasureAS's data for the same AS and config, measured at the host's
// worker count.
func sameArchive(ctx context.Context, rec asgen.Record, cfg exp.Config, got *archive.Data) error {
	cfg.Workers = 0
	want, err := exp.MeasureAS(ctx, rec, cfg)
	if err != nil {
		return fmt.Errorf("AS#%d: %w", rec.ID, err)
	}
	var a, b bytes.Buffer
	if err := archive.WriteData(&a, got); err != nil {
		return err
	}
	if err := archive.WriteData(&b, want); err != nil {
		return err
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		return checkf("AS#%d: traced measurement encodes to %d archive bytes that differ from exp.MeasureAS's %d",
			rec.ID, a.Len(), b.Len())
	}
	return nil
}

// layerMetrics reduces the spans to the per-layer metrics. Layer times are
// self times: a span's duration minus its child spans and its netsim
// exchanges. untracedWall is the median wall time of untraced passes at
// the same worker count, the base of the tracing overhead. It also writes
// the spans, summed by name, and the traced busy time into meta.
func (t *tracer) layerMetrics(untracedWall float64, meta map[string]any) map[string]metric {
	type agg struct {
		N       int     `json:"n"`
		Total   float64 `json:"total_s"`
		Self    float64 `json:"self_s"`
		Netsim  float64 `json:"netsim_s"`
		Sends   int     `json:"sends"`
		Replies int     `json:"replies"`
	}
	by := map[string]*agg{}
	get := func(name string) *agg {
		if by[name] == nil {
			by[name] = &agg{}
		}
		return by[name]
	}
	children := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] += s.end - s.start
		}
	}
	var busy, covered float64
	var perAS []float64
	var netsim time.Duration
	sends, replies := 0, 0
	for i, s := range t.spans {
		d := (s.end - s.start).Seconds()
		a := get(s.name)
		a.N++
		a.Total += d
		a.Self += (s.end - s.start - children[i] - s.netsim).Seconds()
		a.Netsim += s.netsim.Seconds()
		a.Sends += s.sends
		a.Replies += s.replies
		netsim += s.netsim
		sends += s.sends
		replies += s.replies
		if s.parent < 0 {
			busy += d
		}
		if s.name == asSpan {
			perAS = append(perAS, d)
		} else if s.parent < 0 || t.spans[s.parent].name == asSpan {
			covered += d
		}
	}
	quant := func(q float64) float64 {
		if len(perAS) == 0 {
			return 0
		}
		return quantile(perAS, q)
	}
	c := t.counts
	spans := map[string]agg{}
	for name, a := range by {
		spans[name] = *a
	}
	meta["spans"] = spans
	meta["traced_busy_s"] = busy
	// The replay pass decodes every shard once more, alone, to time the
	// decoder; that extra work is not part of what the untraced pass does.
	decode := get("archive.decode").Total
	m := map[string]metric{
		"asgen.build_s":                {get("asgen.build").Self, "s"},
		"asgen.routers":                {c["asgen.routers"], "count"},
		"anaximander.plan_s":           {get("anaximander.plan").Self, "s"},
		"anaximander.targets":          {c["anaximander.targets"], "count"},
		"probe.trace_s":                {get("probe.trace").Self, "s"},
		"probe.traces":                 {float64(get("probe.trace").N), "count"},
		"probe.probes_per_trace":       {share(float64(get("probe.trace").Sends), float64(get("probe.trace").N)), "probes/trace"},
		"netsim.send_s":                {netsim.Seconds(), "s"},
		"netsim.sends":                 {float64(sends), "count"},
		"netsim.reply_ratio":           {share(float64(replies), float64(sends)), "ratio"},
		"fingerprint.collect_s":        {get("fingerprint.collect").Self, "s"},
		"fingerprint.pings":            {float64(get("fingerprint.collect").Sends), "count"},
		"fingerprint.classified_ratio": {share(c["fingerprint.classified"], float64(get("fingerprint.collect").Sends)), "ratio"},
		"alias.resolve_s":              {get("alias.resolve").Self, "s"},
		"alias.candidates":             {c["alias.candidates"], "count"},
		"alias.samples":                {float64(get("alias.resolve").Sends), "count"},
		"alias.samples_per_candidate":  {share(float64(get("alias.resolve").Sends), c["alias.candidates"]), "samples/cand"},
		"alias.sets":                   {c["alias.sets"], "count"},
		"bdrmap.annotate_s":            {get("bdrmap.annotate").Self, "s"},
		"archive.encode_s":             {get("archive.encode").Self, "s"},
		"archive.bytes":                {c["archive.bytes"], "B"},
		"archive.decode_s":             {decode, "s"},
		"archive.decode_mb_per_s":      {share(c["archive.decode_bytes"]/1e6, decode), "MB/s"},
		"exp.detect_s":                 {get("exp.detect").Self - decode, "s"},
		"exp.merge_s":                  {get("exp.merge").Self, "s"},
		"exp.render_s":                 {get("exp.render").Self, "s"},
		"exp.as_p50_s":                 {quant(0.5), "s"},
		"exp.as_p75_s":                 {quant(0.75), "s"},
		"exp.as_max_s":                 {quant(1), "s"},
		"tracing.overhead_s":           {busy - decode - untracedWall, "s"},
		"tracing.coverage":             {share(covered-decode, busy-decode), "ratio"},
	}
	return m
}
