package main

import "testing"

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
