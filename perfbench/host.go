package main

import (
	"runtime"
	"runtime/debug"
)

// hostMeta describes the run: workload and seed, the host, and the source
// the binary was built from (the commit is "unknown" outside a git
// checkout).
func hostMeta(workload string, seed int64, traced bool) map[string]any {
	commit, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	return map[string]any{
		"workload":   workload,
		"seed":       seed,
		"traced":     traced,
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"dirty":      dirty,
	}
}
