package main

import (
	"strings"
	"testing"
)

func TestParseLineStripsOnlyTheGOMAXPROCSSuffix(t *testing.T) {
	for _, tc := range []struct {
		line  string
		procs int
		want  string
	}{
		// At GOMAXPROCS 1 go test appends no suffix: sub-benchmark numbers stay.
		{"BenchmarkCampaignParallel/workers-1 10 100 ns/op", 1, "BenchmarkCampaignParallel/workers-1"},
		{"BenchmarkCampaignParallel/workers-8 10 100 ns/op", 1, "BenchmarkCampaignParallel/workers-8"},
		{"BenchmarkProbe 10 100 ns/op", 1, "BenchmarkProbe"},
		// At GOMAXPROCS 2 only the trailing -2 is go test's.
		{"BenchmarkCampaignParallel/workers-1-2 10 100 ns/op", 2, "BenchmarkCampaignParallel/workers-1"},
		{"BenchmarkCampaignParallel/workers-8-2 10 100 ns/op", 2, "BenchmarkCampaignParallel/workers-8"},
		{"BenchmarkCampaignParallel/workers-2-2 10 100 ns/op", 2, "BenchmarkCampaignParallel/workers-2"},
		{"BenchmarkProbe-2 10 100 ns/op", 2, "BenchmarkProbe"},
		{"BenchmarkShard/n-16 10 100 ns/op", 2, "BenchmarkShard/n-16"},
	} {
		res, ok, err := parseLine(tc.line, "p", tc.procs)
		if err != nil || !ok {
			t.Fatalf("parseLine(%q, %d): ok=%v err=%v", tc.line, tc.procs, ok, err)
		}
		if res.Name != tc.want {
			t.Errorf("parseLine(%q, %d) name = %q, want %q", tc.line, tc.procs, res.Name, tc.want)
		}
	}
}

func TestParseRecordsHost(t *testing.T) {
	const out = `goos: linux
goarch: amd64
pkg: arest/internal/pkt
cpu: AMD EPYC 7B13
BenchmarkEncode-2 10 100 ns/op 0 B/op 0 allocs/op
ok  	arest/internal/pkt	0.1s
goos: darwin
goarch: arm64
pkg: arest/internal/probe
cpu: Apple M2
BenchmarkProbe-2 10 200 ns/op
`
	run, err := parse(strings.NewReader(out), 2)
	if err != nil {
		t.Fatal(err)
	}
	// The first header of each kind wins, as for cpu.
	if run.GOOS != "linux" || run.GOARCH != "amd64" || run.CPU != "AMD EPYC 7B13" {
		t.Errorf("host = goos %q goarch %q cpu %q, want linux amd64 AMD EPYC 7B13", run.GOOS, run.GOARCH, run.CPU)
	}
	if len(run.Results) != 2 || run.Results[0].Pkg != "arest/internal/pkt" || run.Results[1].Name != "BenchmarkProbe" {
		t.Errorf("results = %+v", run.Results)
	}
}
