//go:build !linux

package main

// The process counters come from getrusage and /proc, which the benchmark
// reads on Linux only; elsewhere they report zero.

func cpuTimes() (user, sys float64) { return 0, 0 }

func cpuSeconds() float64 { return 0 }

func udpDrops(uint16) int64 { return 0 }

func volCtxSwitches() int64 { return 0 }
