package main

import (
	"context"
	"fmt"
	"net/netip"

	"arest/internal/archive"
	"arest/internal/asgen"
	"arest/internal/exp"
	"arest/internal/par"
)

// accuracy is a ground-truth score summed over ASes. It is computed from
// outside the program and outside the timed passes: SR detection from
// exp.ASResult.GroundTruth, alias resolution against the routers of the
// rebuilt simulated world.
type accuracy struct {
	// SR detection: strong-flag TP and FP, and all-flag TP and FN.
	strongTP, strongFP int
	allTP, allFN       int
	// Alias resolution, B-cubed: per responsive hop address, the share of
	// its inferred group on its router (precision) and the share of its
	// router's responsive addresses in its group (recall), summed.
	b3Prec, b3Rec float64
	addrs         int
	// Alias resolution, pairs: inferred same-router pairs that are right,
	// all inferred pairs, and all true same-router pairs.
	pairTP, pairInferred, pairTrue int
}

func (a *accuracy) add(o accuracy) {
	a.strongTP += o.strongTP
	a.strongFP += o.strongFP
	a.allTP += o.allTP
	a.allFN += o.allFN
	a.b3Prec += o.b3Prec
	a.b3Rec += o.b3Rec
	a.addrs += o.addrs
	a.pairTP += o.pairTP
	a.pairInferred += o.pairInferred
	a.pairTrue += o.pairTrue
}

func share(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

func (a accuracy) srPrecision() float64 {
	return share(float64(a.strongTP), float64(a.strongTP+a.strongFP))
}
func (a accuracy) srRecall() float64 { return share(float64(a.allTP), float64(a.allTP+a.allFN)) }
func (a accuracy) aliasB3Precision() float64 {
	return share(a.b3Prec, float64(a.addrs))
}
func (a accuracy) aliasB3Recall() float64 { return share(a.b3Rec, float64(a.addrs)) }
func (a accuracy) aliasPairPrecision() float64 {
	return share(float64(a.pairTP), float64(a.pairInferred))
}
func (a accuracy) aliasPairRecall() float64 {
	return share(float64(a.pairTP), float64(a.pairTrue))
}

// scoreMeasured measures every AS again under cfg, one AS per worker, and
// scores the measurements.
func scoreMeasured(ctx context.Context, records []asgen.Record, cfg exp.Config, workers int) (accuracy, error) {
	cfg.Workers = 1
	return scoreEach(ctx, workers, len(records), func(i int) (*archive.Data, error) {
		return exp.MeasureAS(ctx, records[i], cfg)
	}, cfg)
}

// scoreEach scores the n measurements load returns, in parallel.
func scoreEach(ctx context.Context, workers, n int, load func(i int) (*archive.Data, error), cfg exp.Config) (accuracy, error) {
	per := make([]accuracy, n)
	errs := make([]error, n)
	err := par.ForEach(ctx, workers, n, func(i int) {
		data, err := load(i)
		if err == nil {
			per[i], err = scoreData(ctx, data, cfg)
		}
		errs[i] = err
	})
	if err == nil {
		err = firstErr(errs)
	}
	var total accuracy
	for _, a := range per {
		total.add(a)
	}
	return total, err
}

// scoreData scores one AS's measurement.
func scoreData(ctx context.Context, data *archive.Data, cfg exp.Config) (accuracy, error) {
	var a accuracy
	res, err := exp.Detect(ctx, data, cfg)
	if err != nil {
		return a, fmt.Errorf("AS#%d: detect: %w", data.Meta.Record.ID, err)
	}
	for f, c := range res.GroundTruth() {
		a.allTP += c.TP
		a.allFN += c.FN
		if f.Strong() {
			a.strongTP += c.TP
			a.strongFP += c.FP
		}
	}

	// Every responsive hop address takes part, so addresses the alias
	// candidate cap left out count against recall.
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
	// group: the inferred alias set (an address outside every set is its
	// own group); router: the true router (an address no router owns, such
	// as a target host, is its own).
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
	for _, k := range keys {
		a.b3Prec += float64(both[k]) / float64(groupSize[k.group])
		a.b3Rec += float64(both[k]) / float64(routerSize[k.router])
	}
	a.addrs = len(addrs)
	pairs := func(n int) int { return n * (n - 1) / 2 }
	for _, n := range both {
		a.pairTP += pairs(n)
	}
	for _, n := range groupSize {
		a.pairInferred += pairs(n)
	}
	for _, n := range routerSize {
		a.pairTrue += pairs(n)
	}
	return a, nil
}
