package exp

import (
	"context"
	"net/netip"
	"testing"

	"arest/internal/archive"
	"arest/internal/asgen"
	"arest/internal/par"
)

// b3Score is a B-cubed alias score summed over responsive hop addresses.
type b3Score struct {
	prec, rec float64
	addrs     int
}

// scoreAliasB3 scores one AS's alias partition against the simulator's
// routers. Every responsive hop address takes part, so addresses the
// candidate cap left out count against recall. An address outside every
// alias set is a group of its own; an address no router owns (a target
// host) is a router of its own. Precision is the share of an address's
// group on its router, recall the share of its router's addresses in its
// group.
func scoreAliasB3(data *archive.Data) b3Score {
	w := asgen.Build(data.Meta.Record, data.Meta.Dep, data.Meta.NumVPs, data.Meta.Seed)
	var addrs []netip.Addr
	seen := map[netip.Addr]bool{}
	for _, tr := range data.Traces() {
		for i := range tr.Hops {
			if h := &tr.Hops[i]; h.Responded() && !seen[h.Addr] {
				seen[h.Addr] = true
				addrs = append(addrs, h.Addr)
			}
		}
	}
	group := map[netip.Addr]int{}
	for g, set := range data.Aliases {
		for _, addr := range set {
			group[addr] = g + 1
		}
	}
	type key struct{ group, router int }
	both := map[key]int{}
	groupSize := map[int]int{}
	routerSize := map[int]int{}
	keys := make([]key, len(addrs))
	for i, addr := range addrs {
		k := key{group[addr], -1 - i}
		if k.group == 0 {
			k.group = -1 - i
		}
		if r, ok := w.Net.RouterByAddr(addr); ok {
			k.router = int(r.ID)
		}
		keys[i] = k
		both[k]++
		groupSize[k.group]++
		routerSize[k.router]++
	}
	var s b3Score
	for _, k := range keys {
		s.prec += float64(both[k]) / float64(groupSize[k.group])
		s.rec += float64(both[k]) / float64(routerSize[k.router])
	}
	s.addrs = len(addrs)
	return s
}

func TestAliasAccuracyDefaultCampaign(t *testing.T) {
	// The default campaign's alias partition, scored against the routers
	// the simulator placed each address on. The floors are the pair-test
	// resolver's scores at the default seed; the resolver may only improve
	// on them.
	const minPrec, minRec = 0.9990, 0.8347
	recs := asgen.Analyzed()
	cfg := DefaultConfig()
	cfg.Workers = 1
	per := make([]b3Score, len(recs))
	errs := make([]error, len(recs))
	if err := par.ForEach(context.Background(), 0, len(recs), func(i int) {
		data, err := MeasureAS(context.Background(), recs[i], cfg)
		if err != nil {
			errs[i] = err
			return
		}
		per[i] = scoreAliasB3(data)
	}); err != nil {
		t.Fatal(err)
	}
	var sum b3Score
	for i, s := range per {
		if errs[i] != nil {
			t.Fatalf("AS#%d: %v", recs[i].ID, errs[i])
		}
		sum.prec += s.prec
		sum.rec += s.rec
		sum.addrs += s.addrs
	}
	prec, rec := sum.prec/float64(sum.addrs), sum.rec/float64(sum.addrs)
	t.Logf("alias B-cubed over %d addresses: precision %.4f, recall %.4f", sum.addrs, prec, rec)
	if prec < minPrec {
		t.Errorf("alias precision = %.4f, want >= %.4f", prec, minPrec)
	}
	if rec < minRec {
		t.Errorf("alias recall = %.4f, want >= %.4f", rec, minRec)
	}
}
