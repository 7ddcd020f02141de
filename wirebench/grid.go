//fdlint:file-ignore clockuse the benchmark times the QoS grid on the real wall clock

package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"wanfd"
)

// gridConfig sizes the paper's §5.2 QoS experiment (Italy–Japan channel,
// all 30 predictor+margin combinations).
type gridConfig struct {
	runs, cycles int
	// reps is how many grids one run times; the first always uses
	// refSeed and is compared against the stored reference.
	reps int
}

func (g gridConfig) key() string { return fmt.Sprintf("%dx%d", g.runs, g.cycles) }

// refSeed is the grid seed the stored reference was recorded with.
const refSeed = 1

// gridRef holds ReproduceQoS output per grid size at refSeed.
//
//go:embed grid_ref.json
var gridRefJSON []byte

// gridResult is one run's grid phase: per rep, its wall time and the
// process's CPU time (user+sys) spent on it.
type gridResult struct {
	seconds, cpu       []float64
	attempted, failed  int
	mismatch, badInvar int
}

func runGrid(cfg gridConfig, seed int64) (gridResult, error) {
	var res gridResult
	var refs map[string][]wanfd.QoSReport
	if err := json.Unmarshal(gridRefJSON, &refs); err != nil {
		return res, fmt.Errorf("grid reference: %w", err)
	}
	ref, ok := refs[cfg.key()]
	if !ok {
		return res, fmt.Errorf("grid reference has no %s entry", cfg.key())
	}
	for r := 0; r < cfg.reps; r++ {
		s := seed + int64(r)
		if r == 0 {
			s = refSeed
		}
		runtime.GC()
		t, c := time.Now(), cpuSeconds()
		out, err := reproduce(cfg, s)
		res.seconds = append(res.seconds, time.Since(t).Seconds())
		res.cpu = append(res.cpu, cpuSeconds()-c)
		res.attempted++
		if err != nil {
			return res, err
		}
		bad := false
		if r == 0 && !sameReports(out, ref) {
			res.mismatch++
			bad = true
		}
		if !gridInvariants(out) {
			res.badInvar++
			bad = true
		}
		if bad {
			res.failed++
		}
	}
	return res, nil
}

func reproduce(cfg gridConfig, seed int64) ([]wanfd.QoSReport, error) {
	return wanfd.ReproduceQoS(wanfd.QoSOptions{
		Runs: cfg.runs, NumCycles: cfg.cycles, Preset: wanfd.ChannelItalyJapan, Seed: seed,
	})
}

// gridInvariants holds for any seed: every detector sees the same
// crashes, each crash is detected or missed, and P_A is a probability.
func gridInvariants(out []wanfd.QoSReport) bool {
	if len(out) != 30 {
		return false
	}
	for _, q := range out {
		if q.Crashes != out[0].Crashes || q.Detected+q.Missed != q.Crashes || q.PA < 0 || q.PA > 1 {
			return false
		}
	}
	return true
}

func sameReports(a, b []wanfd.QoSReport) bool {
	if len(a) != len(b) {
		return false
	}
	near := func(x, y float64) bool {
		return x == y || math.Abs(x-y) <= 1e-9*math.Max(math.Abs(x), math.Abs(y))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Detector != y.Detector || x.Crashes != y.Crashes || x.Detected != y.Detected ||
			x.Missed != y.Missed || x.Mistakes != y.Mistakes ||
			!near(x.MeanTD, y.MeanTD) || !near(x.MaxTD, y.MaxTD) || !near(x.MeanTM, y.MeanTM) ||
			!near(x.MeanTMR, y.MeanTMR) || !near(x.PA, y.PA) {
			return false
		}
	}
	return true
}
