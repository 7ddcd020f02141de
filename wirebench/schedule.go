package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"wanfd/internal/sched"
)

// plan is the seeded open-loop heartbeat schedule both processes derive
// from the same flags: the generator sends it, the harness checks the
// monitor's verdicts against it. Peer i sends cycle k at
// due = t0 + phase[i] + k·η, except that probes skip every odd cycle, so
// each probe gap is one expected suspicion followed by one trust.
type plan struct {
	peers int
	eta   time.Duration
	phase []time.Duration
	probe []bool
	// order lists peer indices by ascending phase, the order in which one
	// cycle's sends fall due.
	order []int
}

// phaseGrid is the grid peer phases are drawn on, five wheel ticks: each
// grid instant's heartbeats leave as one back-to-back burst (~13 on flap,
// ~10 on fleet). With phases drawn continuously, the monitor's
// drain batches followed the generator's own lateness, which swings with
// the host's CPU steal, and CPU per heartbeat swung with them. In flap's
// window (then 2048 peers at ~20.5k heartbeats/s) on a 2-vCPU VM, its IQR/median was 0.31–0.39 over 4–5 seeds at
// 8–24% steal with continuous phases, up to 0.29 over 10 seeds at 9–23%
// steal on a 1 ms grid, and 0.08 over 5 seeds at 3–18% steal on this one.
const phaseGrid = 5 * sched.DefaultTick

// newPlan draws phases and probes from seed. probeEvery = 1 makes every
// peer a probe; 0 makes none.
func newPlan(peers int, eta time.Duration, probeEvery int, seed int64) *plan {
	rng := rand.New(rand.NewSource(seed))
	p := &plan{
		peers: peers,
		eta:   eta,
		phase: make([]time.Duration, peers),
		probe: make([]bool, peers),
		order: make([]int, peers),
	}
	for i := range p.phase {
		p.phase[i] = phaseGrid * time.Duration(rng.Int63n(int64(eta/phaseGrid)))
		p.order[i] = i
	}
	if probeEvery > 0 {
		perm := rng.Perm(peers)
		for _, i := range perm[:peers/probeEvery] {
			p.probe[i] = true
		}
	}
	sort.Slice(p.order, func(a, b int) bool { return p.phase[p.order[a]] < p.phase[p.order[b]] })
	return p
}

// sends reports whether peer i sends on cycle k.
func (p *plan) sends(i int, k int64) bool { return !p.probe[i] || k%2 == 0 }

// due is the wall instant (Unix ns) peer i's cycle k falls due.
func (p *plan) due(t0 int64, i int, k int64) int64 {
	return t0 + int64(p.phase[i]) + k*int64(p.eta)
}

// cycles is the number of cycles whose due instants can fall inside a
// window of length d.
func (p *plan) cycles(d time.Duration) int64 { return int64(d/p.eta) + 1 }

// peerIP is monitored peer i's source address. The generator claims it
// with IP_PKTINFO; every 127.0.0.0/8 address is local on Linux loopback.
func peerIP(i int) [4]byte { return [4]byte{127, byte(1 + i>>16), byte(i >> 8), byte(i)} }

func peerAddr(i, port int) string {
	ip := peerIP(i)
	return fmt.Sprintf("%d.%d.%d.%d:%d", ip[0], ip[1], ip[2], ip[3], port)
}

// churnAddr is the address of churn-pool peer i, which never heartbeats.
func churnAddr(i, port int) string {
	return fmt.Sprintf("127.200.%d.%d:%d", (i>>8)&255, i&255, port)
}

// remoteAddr is the i-th destination of the node's own heartbeater; the
// generator's sink socket receives for all of them.
func remoteAddr(i, port int) string {
	return fmt.Sprintf("127.100.%d.%d:%d", (i>>8)&255, i&255, port)
}

// peerName and peerIndex map peer indices to monitor names and back
// without allocating on the callback path.
func peerName(i int) string { return fmt.Sprintf("p%d", i) }

func peerIndex(name string) (int, bool) {
	if len(name) < 2 || name[0] != 'p' {
		return 0, false
	}
	n := 0
	for i := 1; i < len(name); i++ {
		c := name[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}
