package main

import (
	"encoding/binary"
	"strings"
)

// cpuid executes the CPUID instruction for leaf (subleaf 0).
func cpuid(leaf uint32) (eax, ebx, ecx, edx uint32)

// cpuModel returns the processor brand string. It asks the processor
// rather than reading /proc/cpuinfo, so the benchmark reads no file
// outside its checkout.
func cpuModel() string {
	if top, _, _, _ := cpuid(0x80000000); top < 0x80000004 {
		return "unknown"
	}
	var b []byte
	for leaf := uint32(0x80000002); leaf <= 0x80000004; leaf++ {
		a, bx, c, d := cpuid(leaf)
		for _, r := range []uint32{a, bx, c, d} {
			b = binary.LittleEndian.AppendUint32(b, r)
		}
	}
	return strings.TrimSpace(strings.TrimRight(string(b), "\x00"))
}
