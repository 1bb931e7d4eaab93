package alias

import (
	"context"
	"errors"
	"net/netip"
	"reflect"
	"strings"
	"testing"

	"arest/internal/obs"
	"arest/internal/probe"
)

var errTransport = errors.New("socket gone")

// errProber wraps a fakeProber and fails the samples fail selects, so a
// test can break exactly one stage: estimation takes sequence numbers
// [0, len(addrs)), the time series the next Rounds·responsive, and
// confirmation the rest.
type errProber struct {
	inner *fakeProber
	fail  func(dst netip.Addr, seq uint32) bool
}

func (e *errProber) SampleIPID(ctx context.Context, dst netip.Addr, seq uint32) (probe.IPIDSample, bool, error) {
	if e.fail(dst, seq) {
		return probe.IPIDSample{}, false, errTransport
	}
	return e.inner.SampleIPID(ctx, dst, seq)
}

// aliasCounter reads one "alias" stage counter from the registry snapshot.
func aliasCounter(reg *obs.Registry, name string) uint64 {
	return reg.Snapshot().Deterministic().Counters["alias."+name]
}

func TestResolveSurfacesEstimationErrors(t *testing.T) {
	// Two addresses share a counter; a third errors on every sample. The
	// partition of the healthy probes must still come back, alongside an
	// error naming the failure — never a silent "unresponsive" downgrade.
	ctr := uint16(100)
	f := &fakeProber{
		ids:  map[netip.Addr]*uint16{a("10.0.0.1"): &ctr, a("10.0.0.2"): &ctr},
		step: map[netip.Addr]uint16{a("10.0.0.1"): 5, a("10.0.0.2"): 5},
		ttl:  map[netip.Addr]uint8{},
	}
	reg := obs.New()
	cfg := DefaultConfig()
	cfg.Metrics = reg
	sets, err := Resolve(context.Background(), []netip.Addr{a("10.0.0.1"), a("10.0.0.2"), a("10.0.0.3")},
		&errProber{inner: f, fail: func(dst netip.Addr, _ uint32) bool { return dst == a("10.0.0.3") }}, cfg)
	if err == nil {
		t.Fatal("Resolve swallowed the sample error")
	}
	if !errors.Is(err, errTransport) {
		t.Errorf("err = %v, want it to wrap the transport error", err)
	}
	if !strings.Contains(err.Error(), "estimate 10.0.0.3") {
		t.Errorf("err = %v, want it to name the errored candidate", err)
	}
	want := [][]netip.Addr{{a("10.0.0.1"), a("10.0.0.2")}}
	if !reflect.DeepEqual(sets, want) {
		t.Errorf("sets = %v, want %v (healthy pair still resolved)", sets, want)
	}
	if got := aliasCounter(reg, "sample_errors"); got != 1 {
		t.Errorf("sample_errors = %d, want 1", got)
	}
}

// sharedFake serves three addresses from one shared counter.
func sharedFake() (*fakeProber, []netip.Addr) {
	ctr := uint16(100)
	addrs := []netip.Addr{a("10.0.0.1"), a("10.0.0.2"), a("10.0.0.3")}
	f := &fakeProber{ids: map[netip.Addr]*uint16{}, step: map[netip.Addr]uint16{}, ttl: map[netip.Addr]uint8{}}
	for _, addr := range addrs {
		f.ids[addr] = &ctr
		f.step[addr] = 5
	}
	return f, addrs
}

func TestResolveExcludesErroredSeriesCandidate(t *testing.T) {
	// All three candidates share a counter and pass estimation. One series
	// sample of the third errors: the candidate is excluded from every
	// pair — not treated as refuted or aliased — while the healthy pair
	// still resolves.
	f, addrs := sharedFake()
	reg := obs.New()
	cfg := DefaultConfig()
	cfg.Metrics = reg
	// Round 1 samples candidate 2 (10.0.0.3) at len(addrs) + 1·3 + 2.
	bad := uint32(len(addrs) + 1*len(addrs) + 2)
	sets, err := Resolve(context.Background(), addrs,
		&errProber{inner: f, fail: func(dst netip.Addr, seq uint32) bool { return dst == a("10.0.0.3") && seq == bad }}, cfg)
	if err == nil {
		t.Fatal("Resolve swallowed the series error")
	}
	if !errors.Is(err, errTransport) {
		t.Errorf("err = %v, want it to wrap the transport error", err)
	}
	if !strings.Contains(err.Error(), "series 10.0.0.3") || !strings.Contains(err.Error(), "1 probe errors") {
		t.Errorf("err = %v, want one error naming the errored candidate", err)
	}
	want := [][]netip.Addr{{a("10.0.0.1"), a("10.0.0.2")}}
	if !reflect.DeepEqual(sets, want) {
		t.Errorf("sets = %v, want %v", sets, want)
	}
	if got := aliasCounter(reg, "sample_errors"); got != 1 {
		t.Errorf("sample_errors = %d, want 1", got)
	}
	// Only the healthy pair is tested.
	if got := aliasCounter(reg, "pairs.tested"); got != 1 {
		t.Errorf("pairs.tested = %d, want 1", got)
	}
	if got := aliasCounter(reg, "pairs.errored"); got != 0 {
		t.Errorf("pairs.errored = %d, want 0", got)
	}
}

func TestResolveNamesFirstSeriesErrorInScheduleOrder(t *testing.T) {
	// 10.0.0.2 errors from round 1 on, 10.0.0.3 from round 0 on. The error
	// names 10.0.0.3, whose sample comes first in the schedule, though it
	// is the later candidate; every errored sample is counted.
	f, addrs := sharedFake()
	n := uint32(len(addrs))
	reg := obs.New()
	cfg := DefaultConfig()
	cfg.Metrics = reg
	_, err := Resolve(context.Background(), addrs, &errProber{inner: f,
		fail: func(dst netip.Addr, seq uint32) bool {
			return (dst == a("10.0.0.2") && seq >= 2*n) || (dst == a("10.0.0.3") && seq >= n)
		}}, cfg)
	if err == nil || !strings.Contains(err.Error(), "(first: series 10.0.0.3") {
		t.Fatalf("err = %v, want the first errored sample in schedule order", err)
	}
	// 10.0.0.2 errors in rounds 1-3, 10.0.0.3 in all four.
	if got := aliasCounter(reg, "sample_errors"); got != 7 {
		t.Errorf("sample_errors = %d, want 7", got)
	}
	if got := aliasCounter(reg, "pairs.tested"); got != 0 {
		t.Errorf("pairs.tested = %d, want 0 (one healthy candidate left)", got)
	}
}

func TestResolveExcludesErroredPairs(t *testing.T) {
	// All three candidates share a counter and pass estimation and the
	// offline test; the third then errors in the confirmation stage (its
	// sequence numbers start after the series range). Pairs touching it
	// must be excluded from the union-find while the healthy pair still
	// resolves.
	f, addrs := sharedFake()
	reg := obs.New()
	cfg := DefaultConfig()
	cfg.Metrics = reg
	confirmBase := uint32(len(addrs) + cfg.Rounds*len(addrs))
	sets, err := Resolve(context.Background(), addrs,
		&errProber{inner: f, fail: func(dst netip.Addr, seq uint32) bool { return dst == a("10.0.0.3") && seq >= confirmBase }}, cfg)
	if err == nil {
		t.Fatal("Resolve swallowed the pair errors")
	}
	if !errors.Is(err, errTransport) {
		t.Errorf("err = %v, want it to wrap the transport error", err)
	}
	// The first errored pair in index order is (10.0.0.1, 10.0.0.3).
	if !strings.Contains(err.Error(), "pair (10.0.0.1, 10.0.0.3)") {
		t.Errorf("err = %v, want the first errored pair named deterministically", err)
	}
	if !strings.Contains(err.Error(), "2 probe errors") {
		t.Errorf("err = %v, want the total errored-probe count", err)
	}
	want := [][]netip.Addr{{a("10.0.0.1"), a("10.0.0.2")}}
	if !reflect.DeepEqual(sets, want) {
		t.Errorf("sets = %v, want %v", sets, want)
	}
	if got := aliasCounter(reg, "pairs.mbt_passed"); got != 3 {
		t.Errorf("pairs.mbt_passed = %d, want 3", got)
	}
	if got := aliasCounter(reg, "pairs.errored"); got != 2 {
		t.Errorf("pairs.errored = %d, want 2", got)
	}
	if got := aliasCounter(reg, "sample_errors"); got != 0 {
		t.Errorf("sample_errors = %d, want 0", got)
	}
}
