// Package alias resolves router aliases — which interface addresses belong
// to the same physical router — with the two techniques the paper combines:
// MIDAR's IP-ID pipeline over the router's shared IP-ID counter (Keys et
// al., "Internet-Scale IPv4 Alias Resolution with MIDAR", IEEE/ACM ToN
// 2013), pruned by an APPLE-style path-length estimation filter.
//
// The pipeline costs O(n·rounds) probes, not a probing test per candidate
// pair: every responsive candidate is sampled into one IP-ID time series,
// the monotonic bounds test runs offline over the merged series of each
// APPLE-surviving pair, and only the pairs that pass are probed again.
package alias

import (
	"context"
	"fmt"
	"net/netip"
	"sort"

	"arest/internal/obs"
	"arest/internal/par"
	"arest/internal/probe"
)

// Prober samples IP-IDs from candidate interfaces; probe.Tracer implements
// it. seq distinguishes successive samples so each probe carries a distinct
// IP-ID; implementations must be safe for concurrent use.
type Prober interface {
	SampleIPID(ctx context.Context, dst netip.Addr, seq uint32) (probe.IPIDSample, bool, error)
}

// Config tunes the resolution pipeline.
type Config struct {
	// Rounds is the length of every candidate's IP-ID time series, and the
	// number of interleaved rounds in a confirmation re-test.
	Rounds int
	// MaxStep is the largest credible IP-ID advance between consecutive
	// samples of a shared counter (MIDAR's velocity bound).
	MaxStep uint16
	// PathLenSlack is the APPLE pruning tolerance on estimated return
	// path lengths.
	PathLenSlack int
	// Workers bounds the probing concurrency (0 = GOMAXPROCS, 1 =
	// sequential). Parallel runs produce the same alias sets as
	// sequential ones: see ConflictKey.
	Workers int
	// ConflictKey, when set, names the shared IP-ID counter behind an
	// address (e.g. the simulated router's ID). Samples and confirmation
	// tests that touch disjoint counters run in parallel; those sharing a
	// counter are serialized in schedule order, so every counter sees the
	// same probe subsequence as a sequential run and the observed IP-ID
	// sequences are identical. Addresses with ok=false — and all
	// addresses when ConflictKey is nil — fall into one shared bucket and
	// are serialized against each other (always correct, merely less
	// parallel).
	ConflictKey func(a netip.Addr) (key uint64, ok bool)
	// Metrics, when non-nil, receives "alias" stage instruments: candidate
	// and pair accounting plus the conflict-queue depth. Every recorded
	// value is a pure function of the candidate set, so the counters sit
	// inside the determinism contract.
	Metrics *obs.Registry
}

// DefaultConfig mirrors conservative MIDAR settings.
func DefaultConfig() Config {
	return Config{Rounds: 4, MaxStep: 2048, PathLenSlack: 1}
}

type candidate struct {
	addr    netip.Addr
	pathLen int
}

// sample is one IP-ID observation; ok is false when the reply was lost.
type sample struct {
	id uint16
	ok bool
}

// pair names two candidates by index, i < j.
type pair struct{ i, j int }

// Resolve returns alias sets (routers) among the candidate addresses. Only
// sets with two or more members are reported. It runs four stages:
//
//  1. estimation: one sample per address gives responsiveness and the
//     APPLE path length;
//  2. time series: every responsive candidate is sampled round-robin for
//     cfg.Rounds rounds on one static schedule;
//  3. offline MBT: the monotonic bounds test runs over the merged series of
//     every APPLE-surviving pair, sending no probes;
//  4. confirmation: each pair that passes gets one interleaved re-test,
//     and the confirmed pairs are joined by union-find.
//
// The result is independent of cfg.Workers: every probe's bytes are a pure
// function of (address, seq), and the conflict-ordered schedules replay
// the sequential probe order on every shared counter.
//
// Lost replies are skipped, not held against a pair: ICMP rate limiting
// drops some samples of every long enough series, and a test that fails on
// any loss loses recall in proportion to the series length. Both bounds
// tests therefore need only two replies per address.
//
// A transport error from the Prober is not a non-response: an errored
// sample means the measurement channel failed, and treating it as "silent
// router" would silently mispartition routers. Errored candidates and
// pairs are recorded distinctly (alias.sample_errors / alias.pairs.errored
// counters), excluded from the partition rather than folded into it, and
// reported through the returned error — deterministically, as the first
// error in schedule order — alongside the partition of the probes that did
// succeed. Callers that need a trustworthy partition must treat a non-nil
// error as fatal for the measurement.
//
// Cancelling ctx aborts resolution at the next sample boundary and returns
// (nil, cause): a cancelled run yields no partition at all, never a partial
// one that could be mistaken for "these probes went unanswered".
func Resolve(ctx context.Context, addrs []netip.Addr, p Prober, cfg Config) ([][]netip.Addr, error) {
	if cfg.Rounds == 0 {
		cfg = DefaultConfig()
	}
	workers := par.Workers(cfg.Workers)

	// Estimation stage: keep responsive candidates and record their
	// APPLE path-length estimate. Responsiveness and path length depend
	// only on each probe's own bytes, never on counter values, so the
	// fan-out needs no ordering.
	ests := make([]*candidate, len(addrs))
	estErrs := make([]error, len(addrs))
	fanErr := par.ForEach(ctx, workers, len(addrs), func(i int) {
		s, ok, err := p.SampleIPID(ctx, addrs[i], uint32(i))
		if err != nil {
			estErrs[i] = err
			return
		}
		if !ok {
			return
		}
		ests[i] = &candidate{addr: addrs[i],
			pathLen: int(probe.InferInitialTTL(s.ReplyTTL)) - int(s.ReplyTTL)}
	})
	if fanErr != nil {
		return nil, fanErr
	}
	sampleErrs := uint64(0)
	var firstErr error
	for i, e := range estErrs {
		if e == nil {
			continue
		}
		sampleErrs++
		if firstErr == nil {
			firstErr = fmt.Errorf("estimate %s: %w", addrs[i], e)
		}
	}
	cands := make([]candidate, 0, len(addrs))
	for _, c := range ests {
		if c != nil {
			cands = append(cands, *c)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].addr.Less(cands[j].addr) })
	cfg.Metrics.Counter("alias", "candidates").Add(uint64(len(addrs)))
	cfg.Metrics.Counter("alias", "responsive").Add(uint64(len(cands)))

	// counterKey buckets an address by the shared counter behind it;
	// bucket 0 collects addresses the oracle cannot place (and everything,
	// when there is no oracle).
	counterKey := func(a netip.Addr) uint64 {
		if cfg.ConflictKey != nil {
			if k, ok := cfg.ConflictKey(a); ok {
				return k + 1
			}
		}
		return 0
	}
	candKeys := make([][]uint64, len(cands))
	for i, c := range cands {
		candKeys[i] = []uint64{counterKey(c.addr)}
	}
	depth := cfg.Metrics.Gauge("alias", "conflict_queue.depth")

	// Time-series stage: sample s = r·m + i probes candidate i in round r
	// with sequence number seriesBase + s, after the estimation range, so
	// no (addr, seq) coordinate repeats. Samples are serialized per
	// counter in that order.
	rounds, m := cfg.Rounds, len(cands)
	seriesBase := uint32(len(addrs))
	series := make([]sample, rounds*m)
	seriesErrs := make([]error, rounds*m)
	seriesKeys := func(s int) []uint64 { return candKeys[s%m] }
	recordDepth(depth, len(series), seriesKeys)
	seriesFanErr := par.ConflictOrdered(ctx, workers, len(series), seriesKeys,
		func(s int) {
			r, i := s/m, s%m
			smp, ok, err := p.SampleIPID(ctx, cands[i].addr, seriesBase+uint32(s))
			if err != nil {
				seriesErrs[s] = err
				return
			}
			series[i*rounds+r] = sample{id: smp.ID, ok: ok}
		})
	if seriesFanErr != nil {
		return nil, seriesFanErr
	}
	// An errored sample excludes its candidate: a series with a hole of
	// unknown cause cannot vouch for or against any pair.
	excluded := make([]bool, m)
	for s, e := range seriesErrs {
		if e == nil {
			continue
		}
		sampleErrs++
		excluded[s%m] = true
		if firstErr == nil {
			firstErr = fmt.Errorf("series %s: %w", cands[s%m].addr, e)
		}
	}
	cfg.Metrics.Counter("alias", "sample_errors").Add(sampleErrs)

	// Offline MBT over every APPLE-surviving pair, in lexicographic order.
	// Within a round candidate i is sampled before candidate j > i, so the
	// two series interleave exactly as in a probed pair test. At the
	// per-AS candidate cap this is all-pairs arithmetic over at most a few
	// thousand pairs — no velocity sort or sliding window is needed.
	var passed []pair
	tested, pruned := 0, 0
	for i := 0; i < m; i++ {
		if excluded[i] {
			continue
		}
		si := series[i*rounds : (i+1)*rounds]
		for j := i + 1; j < m; j++ {
			if excluded[j] {
				continue
			}
			// APPLE pruning: interfaces of one router sit at (nearly) the
			// same return distance.
			d := cands[i].pathLen - cands[j].pathLen
			if d < 0 {
				d = -d
			}
			if d > cfg.PathLenSlack {
				pruned++
				continue
			}
			tested++
			if monotonic(si, series[j*rounds:(j+1)*rounds], cfg.MaxStep) {
				passed = append(passed, pair{i, j})
			}
		}
	}
	cfg.Metrics.Counter("alias", "pairs.tested").Add(uint64(tested))
	cfg.Metrics.Counter("alias", "pairs.apple_pruned").Add(uint64(pruned))
	cfg.Metrics.Counter("alias", "pairs.mbt_passed").Add(uint64(len(passed)))

	// Confirmation stage: each passing pair is re-tested with 2·Rounds
	// interleaved samples numbered after the series range. The pair list
	// is fixed before the first re-test, and tests sharing a counter are
	// serialized in pair order.
	confirmBase := seriesBase + uint32(rounds*m)
	pairKeys := func(t int) []uint64 {
		ki, kj := candKeys[passed[t].i][0], candKeys[passed[t].j][0]
		if ki == kj {
			return candKeys[passed[t].i]
		}
		return []uint64{ki, kj}
	}
	recordDepth(depth, len(passed), pairKeys)
	aliased := make([]bool, len(passed))
	pairErrs := make([]error, len(passed))
	pairFanErr := par.ConflictOrdered(ctx, workers, len(passed), pairKeys,
		func(t int) {
			ok, err := sharedCounter(ctx, cands[passed[t].i].addr, cands[passed[t].j].addr,
				p, cfg, confirmBase+uint32(t*2*rounds))
			if err != nil {
				// An errored pair is neither aliased nor refuted: it is
				// excluded from the union-find and surfaced to the caller.
				pairErrs[t] = err
				return
			}
			aliased[t] = ok
		})
	if pairFanErr != nil {
		return nil, pairFanErr
	}
	pairErrCount := uint64(0)
	for t, e := range pairErrs {
		if e == nil {
			continue
		}
		pairErrCount++
		if firstErr == nil {
			firstErr = fmt.Errorf("pair (%s, %s): %w",
				cands[passed[t].i].addr, cands[passed[t].j].addr, e)
		}
	}
	cfg.Metrics.Counter("alias", "pairs.errored").Add(pairErrCount)

	// Union-find over the recorded outcomes (order-independent: union is
	// commutative on the final partition).
	parent := make([]int, m)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	confirmed := uint64(0)
	for t, ok := range aliased {
		if ok {
			confirmed++
			parent[find(passed[t].i)] = find(passed[t].j)
		}
	}
	cfg.Metrics.Counter("alias", "pairs.aliased").Add(confirmed)
	groups := make(map[int][]netip.Addr)
	for i, c := range cands {
		r := find(i)
		groups[r] = append(groups[r], c.addr)
	}
	var out [][]netip.Addr
	for _, g := range groups {
		if len(g) >= 2 {
			sort.Slice(g, func(i, j int) bool { return g[i].Less(g[j]) })
			out = append(out, g)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0].Less(out[j][0]) })
	if n := sampleErrs + pairErrCount; n > 0 {
		return out, fmt.Errorf("alias: %d probe errors (first: %w)", n, firstErr)
	}
	return out, nil
}

// recordDepth raises the conflict-queue depth gauge to the longest
// per-counter serialization chain of a static schedule of n tasks, where
// task t touches the distinct counters keysOf(t). It reads the schedule
// alone, so the gauge is deterministic at any worker count.
func recordDepth(g *obs.Gauge, n int, keysOf func(t int) []uint64) {
	if g == nil {
		return
	}
	perKey := map[uint64]uint64{}
	for t := 0; t < n; t++ {
		for _, k := range keysOf(t) {
			perKey[k]++
		}
	}
	for _, d := range perKey {
		g.SetMax(d)
	}
}

// sharedCounter re-tests one pair: Rounds rounds of interleaved samples,
// a before b, numbered from seqBase in the resolution run's global
// sequence space, judged by the same loss-tolerant monotonic bounds test
// as the offline stage. A transport error is returned as such: it says
// nothing about whether the counters are shared.
func sharedCounter(ctx context.Context, a, b netip.Addr, p Prober, cfg Config, seqBase uint32) (bool, error) {
	sa := make([]sample, cfg.Rounds)
	sb := make([]sample, cfg.Rounds)
	for r := 0; r < cfg.Rounds; r++ {
		var err error
		if sa[r], err = take(ctx, p, a, seqBase+uint32(2*r)); err != nil {
			return false, err
		}
		if sb[r], err = take(ctx, p, b, seqBase+uint32(2*r+1)); err != nil {
			return false, err
		}
	}
	return monotonic(sa, sb, cfg.MaxStep), nil
}

// take draws one confirmation sample.
func take(ctx context.Context, p Prober, addr netip.Addr, seq uint32) (sample, error) {
	s, ok, err := p.SampleIPID(ctx, addr, seq)
	if err != nil {
		return sample{}, fmt.Errorf("sample %s: %w", addr, err)
	}
	return sample{id: s.ID, ok: ok}, nil
}

// monotonic is the monotonic bounds test over two series sampled in
// alternation: a[r] before b[r], and b[r] before a[r+1]. A shared counter
// yields a strictly increasing merged sequence with small steps, while
// independent counters almost surely violate the bound at some step. Lost
// samples are skipped; each series needs at least two replies, so no pair
// passes on a single reply of either address.
func monotonic(a, b []sample, maxStep uint16) bool {
	na, nb := 0, 0
	var prev uint16
	seen := false
	for r := range a {
		for _, s := range [2]sample{a[r], b[r]} {
			if !s.ok {
				continue
			}
			if seen {
				step := s.id - prev // uint16 arithmetic handles wraparound
				if step == 0 || step > maxStep {
					return false
				}
			}
			prev, seen = s.id, true
		}
		if a[r].ok {
			na++
		}
		if b[r].ok {
			nb++
		}
	}
	return na >= 2 && nb >= 2
}
