//go:build linux

package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// cpuTimes is this process's user and system CPU seconds (getrusage).
func cpuTimes() (user, sys float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime), tv(ru.Stime)
}

func cpuSeconds() float64 {
	u, s := cpuTimes()
	return u + s
}

// udpDrops is the kernel's drop count for the IPv4 UDP socket bound to
// port, from /proc/net/udp (0 when no such socket is listed).
func udpDrops(port uint16) int64 {
	f, err := os.Open("/proc/net/udp")
	if err != nil {
		return 0
	}
	defer f.Close()
	want := fmt.Sprintf(":%04X", port)
	var total int64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 13 || !strings.HasSuffix(fields[1], want) {
			continue
		}
		if n, err := strconv.ParseInt(fields[len(fields)-1], 10, 64); err == nil {
			total += n
		}
	}
	return total
}

// volCtxSwitches is this process's voluntary context-switch count.
func volCtxSwitches() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "voluntary_ctxt_switches:"); ok {
			n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			return n
		}
	}
	return 0
}
