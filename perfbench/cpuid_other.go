//go:build !amd64

package main

import "runtime"

// cpuModel names only the architecture where the brand string is not read.
func cpuModel() string { return runtime.GOARCH }
