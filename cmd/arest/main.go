// Command arest runs the AReST detection methodology over a stored
// campaign and reports detected SR-MPLS segments, per-flag statistics,
// and interworking tunnels. The input is an arest.archive.v2 record
// stream, as cmd/tntsim and cmd/experiments -snapshot write it: it replays
// the full campaign — traces plus the archived fingerprint and bdrmap
// annotations. The archive is analyzed as a one-pass stream, traces folded
// in fixed-size batches, so memory stays bounded by the report state
// rather than the campaign size. Any other input, a retired v1 archive
// included, fails with "bad magic" naming the prefix it found.
//
// Usage:
//
//	arest -i campaign.arest [-fingerprints fp.txt] [-v]
//
// The optional fingerprint file maps interface addresses to vendors, one
// "addr vendor [snmp|ttl]" per line; its entries override any archived
// annotations.
//
// Shutdown: the first SIGINT/SIGTERM cancels the analysis at the next
// batch boundary and exits with status 3; a second signal aborts
// immediately. -deadline bounds the run the same way.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/netip"
	"os"
	"strings"

	"arest/internal/archive"
	"arest/internal/core"
	"arest/internal/eval"
	"arest/internal/fingerprint"
	"arest/internal/lifecycle"
	"arest/internal/mpls"
	"arest/internal/obs"
	"arest/internal/par"
	"arest/internal/probe"
)

// analyzeBatch bounds the traces in flight between input decode and report
// accumulation. Fixed (never derived from the worker count) so batch
// boundaries and all reporting are identical at any concurrency.
const analyzeBatch = 256

// analysis accumulates the whole report one trace at a time: each batch
// fans out across the worker pool into index slots, then reporting walks
// the slots in input order — output is identical at every worker count. A
// cancelled ctx aborts at the next batch boundary through the sticky err,
// so an interrupted analysis never reports partial batches.
type analysis struct {
	ctx     context.Context
	det     *core.Detector
	ann     *fingerprint.Annotator
	asOf    func(netip.Addr) int
	workers int
	reg     *obs.Registry
	verbose bool
	out     io.Writer
	enc     *json.Encoder // non-nil in -json mode

	traces       int
	tracesWithSR int
	flagCounts   map[core.Flag]int
	patterns     map[core.Pattern]int

	batch   []*probe.Trace
	paths   []*core.Path
	results []*core.Result
	err     error
}

func newAnalysis(ctx context.Context, det *core.Detector, workers int, reg *obs.Registry, out io.Writer) *analysis {
	return &analysis{
		ctx:        ctx,
		det:        det,
		workers:    workers,
		reg:        reg,
		out:        out,
		flagCounts: map[core.Flag]int{},
		patterns:   map[core.Pattern]int{},
		batch:      make([]*probe.Trace, 0, analyzeBatch),
		paths:      make([]*core.Path, analyzeBatch),
		results:    make([]*core.Result, analyzeBatch),
	}
}

func (a *analysis) add(tr *probe.Trace) {
	a.batch = append(a.batch, tr)
	if len(a.batch) == analyzeBatch {
		a.flush()
	}
}

func (a *analysis) flush() {
	n := len(a.batch)
	if n == 0 || a.err != nil {
		return
	}
	done := a.reg.Span("core", "stage.analyze").Start()
	err := par.ForEach(a.ctx, a.workers, n, func(i int) {
		a.paths[i] = core.BuildPath(a.batch[i], a.ann, a.asOf)
		a.results[i] = a.det.Analyze(a.paths[i])
	})
	done()
	if err != nil {
		a.err = err
		return
	}
	for i := 0; i < n; i++ {
		a.report(a.batch[i], a.paths[i], a.results[i])
		a.paths[i], a.results[i] = nil, nil
	}
	a.batch = a.batch[:0]
}

// report folds one analyzed trace into the counters and, when configured,
// emits its verbose segment lines or JSON report in input order.
func (a *analysis) report(tr *probe.Trace, p *core.Path, res *core.Result) {
	a.traces++
	if res.HasSR() {
		a.tracesWithSR++
	}
	if a.reg != nil {
		a.reg.Counter("core", "traces").Inc()
		if res.HasSR() {
			a.reg.Counter("core", "traces_with_sr").Inc()
		}
		a.reg.Counter("core", "segments").Add(uint64(len(res.Segments)))
		for _, s := range res.Segments {
			a.reg.Counter("core", "flag."+s.Flag.String()).Inc()
		}
	}
	for _, s := range res.Segments {
		a.flagCounts[s.Flag]++
		if a.verbose {
			fmt.Fprintf(a.out, "%s -> %s  %-4s stars=%d label=%d hops=%d", tr.VP, tr.Dst,
				s.Flag, s.Flag.Stars(), s.Label, s.Len())
			if s.SuffixMatch {
				fmt.Fprint(a.out, " (suffix)")
			}
			fmt.Fprintln(a.out)
			for k := s.Start; k <= s.End; k++ {
				fmt.Fprintf(a.out, "    %-15s %s\n", p.Hops[k].Addr, p.Hops[k].Stack)
			}
		}
	}
	for _, tun := range res.Tunnels() {
		a.patterns[tun.Pattern]++
		if a.reg != nil {
			a.reg.Counter("core", "pattern."+string(tun.Pattern)).Inc()
		}
	}
	if a.enc != nil && a.err == nil {
		a.err = a.enc.Encode(core.NewReport(res))
	}
}

// campaignVisitor folds an archive straight into the analysis: side
// records accumulate annotation state, sealed (with any CLI fingerprint
// overrides merged in) when the first trace arrives.
type campaignVisitor struct {
	an                *analysis
	meta              archive.Meta
	snmp, ttl         map[netip.Addr]mpls.Vendor
	overSNMP, overTTL map[netip.Addr]mpls.Vendor
	borders           map[netip.Addr]int
	sealed            bool
}

func (v *campaignVisitor) Meta(m archive.Meta) error {
	v.meta = m
	return nil
}

func (v *campaignVisitor) Fingerprint(rec archive.FingerprintRecord) error {
	switch rec.Source {
	case archive.SourceSNMP:
		v.snmp[rec.Addr] = rec.Vendor
	case archive.SourceTTL:
		v.ttl[rec.Addr] = rec.Vendor
	}
	return nil
}

// VP, AliasSet, SREnabled, Degraded: measurement-side records the
// detection report does not consume.
func (v *campaignVisitor) VP(archive.VPRecord) error               { return nil }
func (v *campaignVisitor) AliasSet(archive.AliasSetRecord) error   { return nil }
func (v *campaignVisitor) SREnabled(archive.SREnabledRecord) error { return nil }
func (v *campaignVisitor) Degraded(archive.Degraded) error         { return nil }

func (v *campaignVisitor) Border(rec archive.BorderRecord) error {
	v.borders[rec.Addr] = rec.ASN
	return nil
}

func (v *campaignVisitor) Trace(rec archive.TraceRecord) error {
	if !v.sealed {
		v.seal()
	}
	v.an.add(rec.Trace)
	// A cancelled (or otherwise failed) analysis aborts the stream at the
	// next record instead of decoding the rest of the archive.
	return v.an.err
}

func (v *campaignVisitor) seal() {
	v.sealed = true
	for a, vend := range v.overSNMP {
		v.snmp[a] = vend
	}
	for a, vend := range v.overTTL {
		v.ttl[a] = vend
	}
	v.an.ann = fingerprint.NewAnnotator(v.snmp, v.ttl)
	if len(v.borders) > 0 {
		borders := v.borders
		v.an.asOf = func(a netip.Addr) int { return borders[a] }
	}
}

func main() {
	sigs, stopNotify := lifecycle.Notify()
	defer stopNotify()
	hard := func() {
		fmt.Fprintln(os.Stderr, "arest: second signal: aborting immediately")
		os.Exit(lifecycle.ExitFailure)
	}
	os.Exit(run(os.Args[1:], sigs, hard, os.Stdin, os.Stdout, os.Stderr))
}

// run is the testable body of the command (see cmd/experiments): signals
// come from an injected channel and the exit status is returned.
func run(argv []string, sigs <-chan os.Signal, hard func(), stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("arest", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("i", "", "input archive (arest.archive.v2; default stdin)")
	fpFile := fs.String("fingerprints", "", "vendor fingerprint file (addr vendor [snmp|ttl])")
	verbose := fs.Bool("v", false, "print every detected segment")
	jsonOut := fs.Bool("json", false, "emit one JSON report per trace instead of tables")
	noSuffix := fs.Bool("no-suffix", false, "disable suffix-based label matching")
	workers := fs.Int("workers", 0, "analysis worker pool size (0 = GOMAXPROCS, 1 = sequential)")
	deadline := fs.Duration("deadline", 0, "wall-clock budget for the analysis; on expiry it drains like a first signal and exits with status 3")
	metricsOut := fs.String("metrics", "", "export analysis metrics to <file> (.json = JSON, else summary table, - = stdout)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	if err := fs.Parse(argv); err != nil {
		return lifecycle.ExitFailure
	}
	errorf := func(format string, args ...interface{}) int {
		fmt.Fprintf(stderr, "arest: "+format+"\n", args...)
		return lifecycle.ExitFailure
	}

	if *pprofAddr != "" {
		addr, err := obs.ServePprof(*pprofAddr)
		if err != nil {
			return errorf("pprof: %v", err)
		}
		fmt.Fprintf(stderr, "pprof listening on http://%s/debug/pprof/\n", addr)
	}
	var reg *obs.Registry
	if *metricsOut != "" {
		reg = obs.New()
	}

	parent := context.Background()
	if *deadline > 0 {
		var cancel context.CancelFunc
		parent, cancel = context.WithTimeout(parent, *deadline)
		defer cancel()
	}
	ctx, stopSig := lifecycle.Context(parent, sigs, hard)
	defer stopSig()

	r := stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return errorf("open %s: %v", *in, err)
		}
		defer f.Close()
		r = f
	}

	// CLI-supplied fingerprints override archived annotations.
	fsnmp := map[netip.Addr]mpls.Vendor{}
	fttl := map[netip.Addr]mpls.Vendor{}
	if *fpFile != "" {
		var err error
		fsnmp, fttl, err = loadFingerprints(*fpFile)
		if err != nil {
			return errorf("fingerprints: %v", err)
		}
	}

	det := core.NewDetector()
	det.SuffixMatching = !*noSuffix
	an := newAnalysis(ctx, det, par.Workers(*workers), reg, stdout)
	an.verbose = *verbose
	if *jsonOut {
		an.enc = json.NewEncoder(stdout)
	}

	v := &campaignVisitor{
		an:       an,
		snmp:     map[netip.Addr]mpls.Vendor{},
		ttl:      map[netip.Addr]mpls.Vendor{},
		overSNMP: fsnmp,
		overTTL:  fttl,
		borders:  map[netip.Addr]int{},
	}
	// A stream error with an.err set is the analysis aborting the stream
	// (cancellation or encode failure) — handled below.
	if err := archive.Stream(r, v); err != nil && an.err == nil {
		return errorf("read traces: %v", err)
	}
	an.flush()
	if an.err != nil {
		if lifecycle.Interrupted(an.err) {
			fmt.Fprintf(stderr, "arest: interrupted: %v (partial report suppressed; re-run to analyze)\n", an.err)
			return lifecycle.ExitInterrupted
		}
		return errorf("encode report: %v", an.err)
	}
	if an.traces == 0 {
		return errorf("no traces in input")
	}

	if reg != nil {
		snap := reg.Snapshot()
		if err := snap.ExportFile(*metricsOut); err != nil {
			return errorf("metrics: %v", err)
		}
		if *metricsOut != "-" {
			fmt.Fprint(stderr, snap.Summary())
		}
	}

	if *jsonOut {
		return lifecycle.ExitOK
	}

	if meta := v.meta.Record; meta.Name != "" {
		fmt.Fprintf(stdout, "campaign: %s (AS%d), %d traces\n\n", meta.Name, meta.ASN, an.traces)
	} else {
		fmt.Fprintf(stdout, "%d traces\n\n", an.traces)
	}
	t := eval.Table{Title: "AReST detection summary", Headers: []string{"Flag", "Stars", "Segments"}}
	total := 0
	for _, f := range core.AllFlags {
		t.AddRow(f.String(), strings.Repeat("*", f.Stars()), an.flagCounts[f])
		total += an.flagCounts[f]
	}
	fmt.Fprint(stdout, t.Render())
	fmt.Fprintf(stdout, "total segments: %d; traces with strong SR evidence: %d/%d\n\n",
		total, an.tracesWithSR, an.traces)

	pt := eval.Table{Title: "Tunnel structure", Headers: []string{"Pattern", "Tunnels"}}
	for _, p := range []core.Pattern{core.PatternFullSR, core.PatternFullLDP, core.PatternSRLDP,
		core.PatternLDPSR, core.PatternLDPSRLDP, core.PatternSRLDPSR, core.PatternOther} {
		if an.patterns[p] > 0 {
			pt.AddRow(string(p), an.patterns[p])
		}
	}
	fmt.Fprint(stdout, pt.Render())
	return lifecycle.ExitOK
}

// loadFingerprints parses "addr vendor [snmp|ttl]" lines.
func loadFingerprints(path string) (snmp, ttl map[netip.Addr]mpls.Vendor, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	snmp = map[netip.Addr]mpls.Vendor{}
	ttl = map[netip.Addr]mpls.Vendor{}
	vendors := map[string]mpls.Vendor{
		"cisco": mpls.VendorCisco, "juniper": mpls.VendorJuniper,
		"huawei": mpls.VendorHuawei, "nokia": mpls.VendorNokia,
		"arista": mpls.VendorArista, "linux": mpls.VendorLinux,
		"mikrotik": mpls.VendorMikroTik, "cisco/huawei": mpls.VendorCiscoHuawei,
		"ciscohuawei": mpls.VendorCiscoHuawei,
	}
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(strings.TrimSpace(sc.Text()))
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if len(fields) < 2 {
			return nil, nil, fmt.Errorf("line %d: want 'addr vendor [snmp|ttl]'", line)
		}
		addr, err := netip.ParseAddr(fields[0])
		if err != nil {
			return nil, nil, fmt.Errorf("line %d: %v", line, err)
		}
		v, ok := vendors[strings.ToLower(fields[1])]
		if !ok {
			return nil, nil, fmt.Errorf("line %d: unknown vendor %q", line, fields[1])
		}
		src := "snmp"
		if len(fields) >= 3 {
			src = strings.ToLower(fields[2])
		}
		switch src {
		case "snmp", "snmpv3":
			snmp[addr] = v
		case "ttl":
			ttl[addr] = v
		default:
			return nil, nil, fmt.Errorf("line %d: unknown source %q", line, fields[2])
		}
	}
	return snmp, ttl, sc.Err()
}
