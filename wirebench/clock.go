//fdlint:file-ignore clockuse the benchmark plays the application and generator roles, stamping sends and verdicts on the real wall clock

package main

import "time"

// wallClock reads Unix nanoseconds as the wall instant at construction
// plus monotonic time since, the same construction as the monitor's
// sim.RealClock, so stamps from the generator, the harness and the
// monitor's own epoch share one time base up to the wall/monotonic drift
// between their construction instants.
type wallClock struct {
	base     time.Time
	baseNano int64
}

func newWallClock() wallClock {
	t := time.Now()
	return wallClock{base: t, baseNano: t.UnixNano()}
}

func (c wallClock) now() int64 { return c.baseNano + int64(time.Since(c.base)) }

// sleepUntil blocks until the wall instant at (Unix ns).
func (c wallClock) sleepUntil(at int64) {
	if d := at - c.now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// waitUntil blocks until the wall instant at, or returns false early when
// stop closes.
func (c wallClock) waitUntil(at int64, stop <-chan struct{}) bool {
	t := time.NewTimer(time.Duration(at - c.now()))
	defer t.Stop()
	select {
	case <-stop:
		return false
	case <-t.C:
		return true
	}
}
