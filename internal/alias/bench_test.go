package alias

import (
	"context"
	"net/netip"
	"sort"
	"sync/atomic"
	"testing"

	"arest/internal/asgen"
	"arest/internal/probe"
)

// countingProber counts the IP-ID samples it forwards.
type countingProber struct {
	inner Prober
	n     atomic.Int64
}

func (c *countingProber) SampleIPID(ctx context.Context, dst netip.Addr, seq uint32) (probe.IPIDSample, bool, error) {
	c.n.Add(1)
	return c.inner.SampleIPID(ctx, dst, seq)
}

// BenchmarkResolve measures the alias layer alone at the campaign's
// per-AS candidate cap: the 120 lowest interface addresses of a catalogue
// world (Bell Canada, 60 routers, the default seed), resolved at one
// worker with the ground-truth conflict keys exp.MeasureAS uses.
// samples/op counts the IP-ID probes one resolution sends.
func BenchmarkResolve(b *testing.B) {
	const seed, maxRouters, candCap = 20250405, 60, 120
	rec, ok := asgen.ByID(28)
	if !ok {
		b.Fatal("catalogue record 28 missing")
	}
	dep := asgen.DeploymentFor(rec, seed)
	dep.Routers = min(dep.Routers, maxRouters)
	w := asgen.Build(rec, dep, 1, seed)
	var cands []netip.Addr
	for _, r := range w.Routers {
		cands = append(cands, r.Interfaces()...)
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].Less(cands[j]) })
	cands = cands[:min(len(cands), candCap)]
	p := &countingProber{inner: probe.NewTracer(probe.NetsimConn{Net: w.Net}, w.VPs[0])}
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.ConflictKey = func(a netip.Addr) (uint64, bool) {
		r, ok := w.Net.RouterByAddr(a)
		if !ok {
			return 0, false
		}
		return uint64(r.ID), true
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Resolve(context.Background(), cands, p, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(p.n.Load())/float64(b.N), "samples/op")
	b.ReportMetric(float64(len(cands)), "candidates")
}
