package exp

import (
	"context"
	"net/netip"
	"strings"
	"sync"
	"testing"

	"arest/internal/asgen"
	"arest/internal/bdrmap"
	"arest/internal/core"
	"arest/internal/fingerprint"
	"arest/internal/probe"
)

// testCfg keeps campaign tests fast.
func testCfg() Config {
	return Config{
		Seed:              101,
		NumVPs:            3,
		MaxTargets:        10,
		FlowsPerTarget:    1,
		AliasCandidateCap: 60,
		MaxRouters:        22,
	}
}

var (
	campOnce sync.Once
	camp     *Campaign
	campErr  error
)

// testCampaign runs a representative subset of the catalogue once and
// shares it across tests: ESnet (ground truth), Microsoft (full SR),
// Proximus (LSO-only), Bell Canada (claimed transit), Iliad (no explicit),
// Hurricane Electric (unknown, well-fingerprinted), Amazon (unknown).
func testCampaign(t *testing.T) *Campaign {
	t.Helper()
	campOnce.Do(func() {
		var recs []asgen.Record
		for _, id := range []int{2, 7, 15, 19, 28, 40, 46} {
			r, ok := asgen.ByID(id)
			if !ok {
				campErr = errNotFound(id)
				return
			}
			recs = append(recs, r)
		}
		camp, campErr = Run(context.Background(), recs, testCfg())
	})
	if campErr != nil {
		t.Fatal(campErr)
	}
	return camp
}

type errNotFound int

func (e errNotFound) Error() string { return "record not found" }

func TestCampaignRuns(t *testing.T) {
	c := testCampaign(t)
	if len(c.ASes) != 7 {
		t.Fatalf("ASes = %d, want 7", len(c.ASes))
	}
	for _, r := range c.ASes {
		if r.TracesSent == 0 {
			t.Errorf("AS#%d sent no traces", r.Record.ID)
		}
		if r.Agg.PathsInAS == 0 {
			t.Errorf("AS#%d has no in-AS paths", r.Record.ID)
		}
	}
}

func TestCampaignSkipsExcluded(t *testing.T) {
	rec, _ := asgen.ByID(1) // excluded for coverage
	c, err := Run(context.Background(), []asgen.Record{rec}, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.ASes) != 0 {
		t.Error("excluded AS was run")
	}
}

func TestESnetGroundTruthPerfectPrecision(t *testing.T) {
	c := testCampaign(t)
	r, ok := c.ByID(46)
	if !ok {
		t.Fatal("ESnet missing")
	}
	counts := r.FlagCounts()
	// Fingerprint-blind: no vendor-range flags possible.
	for _, f := range []core.Flag{core.FlagCVR, core.FlagLSVR, core.FlagLVR} {
		if counts[f] != 0 {
			t.Errorf("ESnet raised %v despite blind fingerprinting", f)
		}
	}
	if counts[core.FlagCO] == 0 {
		t.Error("ESnet raised no CO segments")
	}
	// Table 3's headline: perfect precision against the operator ground
	// truth, for every flag that fired.
	for f, cm := range r.GroundTruth() {
		if cm.FPRate() != 0 {
			t.Errorf("flag %v FP rate = %.3f (%+v), want 0", f, cm.FPRate(), cm)
		}
		if f == core.FlagCO && cm.FNRate() != 0 {
			t.Errorf("CO FN rate = %.3f, want 0", cm.FNRate())
		}
	}
	// CO should dominate the ESnet flag mix (paper: 95.6%).
	sh := r.FlagShares()
	if sh[core.FlagCO] < 0.5 {
		t.Errorf("ESnet CO share = %.2f, want dominant", sh[core.FlagCO])
	}
}

func TestMicrosoftWidestSRFootprint(t *testing.T) {
	c := testCampaign(t)
	msft, _ := c.ByID(15)
	prox, _ := c.ByID(7)
	if !msft.HasStrongSR() {
		t.Fatal("Microsoft shows no strong SR")
	}
	// Fig. 10: Microsoft's SR interface share far exceeds an LSO-only AS.
	ms := msft.AreaInterfaceCounts()
	ps := prox.AreaInterfaceCounts()
	msTotal := ms[core.AreaSR] + ms[core.AreaMPLS] + ms[core.AreaIP]
	if msTotal == 0 || float64(ms[core.AreaSR])/float64(msTotal) < 0.3 {
		t.Errorf("Microsoft SR interface share too low: %v", ms)
	}
	if ps[core.AreaSR] != 0 {
		t.Errorf("Proximus (no SR deployed) has SR interfaces: %v", ps)
	}
}

func TestProximusIsLSOOnly(t *testing.T) {
	c := testCampaign(t)
	r, _ := c.ByID(7)
	counts := r.FlagCounts()
	if counts[core.FlagLSO] == 0 {
		t.Error("Proximus raised no LSO")
	}
	for _, f := range []core.Flag{core.FlagCVR, core.FlagCO} {
		if counts[f] != 0 {
			t.Errorf("Proximus raised sequence flag %v: %d", f, counts[f])
		}
	}
	if r.HasStrongSR() {
		t.Error("Proximus shows strong SR despite running classic MPLS")
	}
}

func TestIliadNoExplicitTunnels(t *testing.T) {
	c := testCampaign(t)
	r, _ := c.ByID(2)
	if share := r.ExplicitPathShare(); share > 0.05 {
		t.Errorf("Iliad explicit path share = %.2f, want ~0", share)
	}
	// Without explicit tunnels the sequence flags starve.
	counts := r.FlagCounts()
	if counts[core.FlagCVR]+counts[core.FlagCO] != 0 {
		t.Errorf("sequence flags without explicit tunnels: %v", counts)
	}
}

func TestGroundTruthPrecisionAcrossCampaign(t *testing.T) {
	// The paper's claim is conservative flags => high precision. Verify
	// strong flags against ground truth across every AS.
	c := testCampaign(t)
	tp, fp := 0, 0
	for _, r := range c.ASes {
		for f, cm := range r.GroundTruth() {
			if f.Strong() {
				tp += cm.TP
				fp += cm.FP
			}
		}
	}
	if tp == 0 {
		t.Fatal("no strong-flag segments campaign-wide")
	}
	prec := float64(tp) / float64(tp+fp)
	if prec < 0.98 {
		t.Errorf("strong-flag precision = %.3f (%d TP, %d FP), want >= 0.98", prec, tp, fp)
	}
}

func TestHeadlineShape(t *testing.T) {
	c := testCampaign(t)
	h := ComputeHeadline(c)
	// Claimed: #2 (invisible, may miss), #15, #28, #46 => at least 3 of 4
	// detected, matching the 75% result's spirit.
	if h.ClaimedASes != 4 {
		t.Fatalf("claimed ASes = %d, want 4", h.ClaimedASes)
	}
	if h.ClaimedStrong < 3 {
		t.Errorf("strong detection in %d/4 claimed ASes", h.ClaimedStrong)
	}
	// Suffix matches must be rare (paper: 0.01%).
	if h.SuffixMatchShare > 0.05 {
		t.Errorf("suffix match share = %.3f, want rare", h.SuffixMatchShare)
	}
	// Fingerprinted share strictly between 0 and 1: coverage is partial.
	if h.FingerprintedSRShare <= 0 || h.FingerprintedSRShare >= 1 {
		t.Errorf("fingerprinted SR share = %.3f", h.FingerprintedSRShare)
	}
}

func TestStackDepthContext(t *testing.T) {
	// Fig. 9: deep stacks should be relatively more frequent in SR
	// contexts than in classic contexts for the ESnet-like service-SID AS.
	c := testCampaign(t)
	r, _ := c.ByID(46)
	srDist := r.StackDepthDist(true)
	deep, tot := 0, 0
	for d, n := range srDist {
		tot += n
		if d >= 2 {
			deep += n
		}
	}
	if tot == 0 {
		t.Fatal("no SR-context stacks in ESnet")
	}
	if deep == 0 {
		t.Error("ESnet service SIDs produced no deep stacks in SR context")
	}
}

func TestVPAccumulationMonotone(t *testing.T) {
	c := testCampaign(t)
	for _, r := range c.ASes {
		acc := r.VPAccumulation()
		if len(acc) != c.Cfg.NumVPs {
			t.Fatalf("AS#%d accumulation length %d, want %d", r.Record.ID, len(acc), c.Cfg.NumVPs)
		}
		for i := 1; i < len(acc); i++ {
			if acc[i] < acc[i-1] {
				t.Errorf("AS#%d accumulation decreased", r.Record.ID)
			}
		}
	}
}

func TestTunnelTypeCountsConsistent(t *testing.T) {
	c := testCampaign(t)
	r, _ := c.ByID(15) // full SR, explicit
	counts := r.TunnelTypeCounts()
	if counts[probe.TunnelExplicit] == 0 {
		t.Error("Microsoft shows no explicit tunnels")
	}
	r2, _ := c.ByID(2) // no propagate
	if counts2 := r2.TunnelTypeCounts(); counts2[probe.TunnelExplicit] > counts2[probe.TunnelOpaque]+counts2[probe.TunnelInvisible] {
		t.Errorf("Iliad tunnel mix unexpectedly explicit: %v", counts2)
	}
}

func TestAllExperimentsRender(t *testing.T) {
	c := testCampaign(t)
	for _, e := range All {
		out := e.Run(context.Background(), c)
		if len(out) < 20 {
			t.Errorf("experiment %s output too short: %q", e.ID, out)
		}
		if !strings.Contains(strings.ToLower(out), strings.ToLower(e.ID[:3])) &&
			!strings.Contains(out, "Sec.") {
			// Loose sanity: output mentions its own table/figure id.
			t.Logf("experiment %s output does not echo its id (ok if intentional)", e.ID)
		}
	}
	if _, ok := ByID("fig8"); !ok {
		t.Error("ByID(fig8) failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID(nope) succeeded")
	}
}

func TestFlagSharesSumToOne(t *testing.T) {
	c := testCampaign(t)
	for _, r := range c.ASes {
		sh := r.FlagShares()
		if len(sh) == 0 {
			continue
		}
		sum := 0.0
		for _, s := range sh {
			sum += s
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("AS#%d flag shares sum to %f", r.Record.ID, sum)
		}
	}
}

func TestTable5Scaled(t *testing.T) {
	c := testCampaign(t)
	out := runTable5(context.Background(), c)
	if !strings.Contains(out, "ESnet") || !strings.Contains(out, "Microsoft") {
		t.Errorf("table 5 missing rows:\n%s", out)
	}
}

func TestLongitudinalAdoption(t *testing.T) {
	rec, _ := asgen.ByID(28)
	cfg := testCfg()
	cfg.NumVPs = 2
	cfg.MaxTargets = 8
	stats, err := RunLongitudinal(context.Background(), rec, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 4 {
		t.Fatalf("epochs = %d", len(stats))
	}
	// Detected SR share must be (weakly) monotone in deployment and hit
	// the endpoints: nothing at SRFrac 0, plenty at SRFrac 1.
	if stats[0].DetectedSRShare != 0 {
		t.Errorf("epoch 0 detected %.2f, want 0", stats[0].DetectedSRShare)
	}
	if stats[len(stats)-1].DetectedSRShare < 0.3 {
		t.Errorf("full deployment detected only %.2f", stats[len(stats)-1].DetectedSRShare)
	}
	for i := 1; i < len(stats); i++ {
		if stats[i].DetectedSRShare+0.05 < stats[i-1].DetectedSRShare {
			t.Errorf("detected share regressed at epoch %d: %.2f -> %.2f",
				i, stats[i-1].DetectedSRShare, stats[i].DetectedSRShare)
		}
	}
	// Interworking only mid-migration.
	if stats[0].Interworking || stats[len(stats)-1].Interworking {
		t.Error("interworking at an endpoint epoch")
	}
	mid := false
	for _, s := range stats[1 : len(stats)-1] {
		mid = mid || s.Interworking
	}
	if !mid {
		t.Error("no interworking observed mid-migration")
	}
}

func TestInferSRGBAgainstWorldTruth(t *testing.T) {
	// The SRGB inference extension must recover the configured block of a
	// campaign world — default and custom alike.
	c := testCampaign(t)
	r, _ := c.ByID(15) // Microsoft: aligned default block
	est, ok := r.InferSRGB()
	if !ok {
		t.Fatal("no estimate for a full-SR AS")
	}
	cfg := r.Dep.CustomSRGB
	if cfg.Size() == 0 {
		// Aligned deployments use the common interop (Cisco) block.
		if est.Block.Lo != 16000 || est.Block.Hi != 23999 {
			t.Errorf("block = %v, want the configured default", est.Block)
		}
	} else if !cfg.Contains(est.Observed.Lo) || !cfg.Contains(est.Observed.Hi) {
		t.Errorf("observed %v outside configured %v", est.Observed, cfg)
	}
}

func TestVerdictsMatchDeployments(t *testing.T) {
	c := testCampaign(t)
	esnet, _ := c.ByID(46)
	if v := esnet.Verdict(); v != core.VerdictCorroborated {
		t.Errorf("ESnet verdict = %v, want corroborated", v)
	}
	prox, _ := c.ByID(7)
	if v := prox.Verdict(); v != core.VerdictAmbiguous {
		t.Errorf("Proximus verdict = %v, want ambiguous (LSO only)", v)
	}
	msft, _ := c.ByID(15)
	if v := msft.Verdict(); v < core.VerdictDetected {
		t.Errorf("Microsoft verdict = %v, want at least detected", v)
	}
}

func TestTestbedScenariosAllPass(t *testing.T) {
	outcomes, err := RunTestbed(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 5 {
		t.Fatalf("scenarios = %d, want 5 (one per flag)", len(outcomes))
	}
	seen := map[core.Flag]bool{}
	for _, o := range outcomes {
		if !o.Pass {
			t.Errorf("%s: dominant = %v, want %v (counts %v)",
				o.Scenario.Name, o.Dominant, o.Scenario.Expected, o.Counts)
		}
		seen[o.Scenario.Expected] = true
	}
	for _, f := range core.AllFlags {
		if !seen[f] {
			t.Errorf("no scenario covers flag %v", f)
		}
	}
}

func TestLabelRangeHistBucketsDisjoint(t *testing.T) {
	// The Fig. 16 buckets must tile the 20-bit space without overlap.
	covered := 0
	for i, b := range LabelBuckets {
		covered += int(b.R.Size())
		for j := i + 1; j < len(LabelBuckets); j++ {
			if _, overlap := b.R.Overlap(LabelBuckets[j].R); overlap {
				t.Errorf("buckets %s and %s overlap", b.Name, LabelBuckets[j].Name)
			}
		}
	}
	if covered != 1<<20 {
		t.Errorf("buckets cover %d labels, want %d", covered, 1<<20)
	}
}

func TestLabelRangeHistCounts(t *testing.T) {
	c := testCampaign(t)
	r, _ := c.ByID(15)
	hist := r.LabelRangeHist()
	total := 0
	for _, n := range hist {
		total += n
	}
	if total == 0 {
		t.Fatal("no labels counted")
	}
	// Microsoft is aligned to the 16000-23999 block: that bucket dominates.
	if hist["16000-23999"]*2 < total {
		t.Errorf("SRGB bucket not dominant: %v", hist)
	}
}

func TestFingerprintSourceCountsPartition(t *testing.T) {
	c := testCampaign(t)
	for _, r := range c.ASes {
		src := r.FingerprintSourceCounts()
		sum := 0
		for _, n := range src {
			sum += n
		}
		// The partition must cover every distinct in-AS interface exactly
		// once. The interface set is rebuilt from a fresh measurement,
		// independently of the fold under test.
		data, err := MeasureAS(context.Background(), r.Record, c.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		ann := fingerprint.NewAnnotator(data.SNMP, data.TTL)
		asOf := bdrmap.Annotation(data.Borders).AsFunc()
		seen := map[netip.Addr]bool{}
		for _, tr := range data.Traces() {
			p := core.BuildPath(tr, ann, asOf).RestrictToAS(r.Record.ASN)
			for i := range p.Hops {
				seen[p.Hops[i].Addr] = true
			}
		}
		if sum != len(seen) {
			t.Errorf("AS#%d: source counts sum %d != %d interfaces", r.Record.ID, sum, len(seen))
		}
	}
}

func TestDistinctIPsConsistentWithAccumulation(t *testing.T) {
	c := testCampaign(t)
	for _, r := range c.ASes {
		acc := r.VPAccumulation()
		if len(acc) == 0 {
			continue
		}
		// In-AS distinct IPs can never exceed the campaign-wide unique
		// hop count (which includes upstream hops).
		if r.DistinctIPs() > acc[len(acc)-1] {
			t.Errorf("AS#%d: in-AS IPs %d > total unique %d", r.Record.ID, r.DistinctIPs(), acc[len(acc)-1])
		}
	}
}
