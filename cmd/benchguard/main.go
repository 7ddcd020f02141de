// Command benchguard gates CI on allocation regressions in the batched
// ingest pipeline. It parses standard `go test -bench` output (stdin or a
// file argument), looks each benchmark up in the committed baseline
// (BENCH_ingest.json), and fails when allocs/op regresses by more than the
// tolerance. A zero-alloc baseline is absolute: any allocation at all on a
// benchmark recorded at 0 allocs/op fails the build — that is the whole
// point of the freelist pipeline, and "1 alloc/op" is how it quietly dies.
//
// ns/op is reported for context but never gated: CI runners are too noisy
// for a wall-clock gate, while allocation counts are deterministic.
// Baseline runs missing from the input are listed as "not run", so the log
// shows which baselines went un-gated; they do not fail the build.
//
// Usage:
//
//	go test -run '^$' -bench BenchmarkIngest -benchtime 100000x . |
//	    go run ./cmd/benchguard -baseline BENCH_ingest.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

type baselineFile struct {
	Schema  string          `json:"schema"`
	Entries []baselineEntry `json:"entries"`
}

type baselineEntry struct {
	Date string        `json:"date"`
	PR   int           `json:"pr"`
	Runs []baselineRun `json:"runs"`
}

type baselineRun struct {
	Benchmark   string    `json:"benchmark"`
	NsPerOp     []float64 `json:"ns_per_op"`
	BytesPerOp  float64   `json:"bytes_per_op"`
	AllocsPerOp float64   `json:"allocs_per_op"`
}

// measured is one parsed benchmark result line.
type measured struct {
	name    string
	nsPerOp float64
	allocs  float64
	hasNs   bool
	// allocs/op is only printed under -benchmem (or b.ReportAllocs); a
	// line without it cannot be gated and is an error for gated names.
	hasAllocs bool
}

// gomaxprocsSuffix strips the "-8"-style GOMAXPROCS suffix Go appends to
// benchmark names on multi-core runners.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

func parseBenchLines(r io.Reader) ([]measured, error) {
	var out []measured
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		m := measured{name: gomaxprocsSuffix.ReplaceAllString(f[0], "")}
		// After the name and iteration count, the rest of the line is
		// value/unit pairs: "279.9 ns/op  0 B/op  0 allocs/op ...".
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			switch f[i+1] {
			case "ns/op":
				m.nsPerOp, m.hasNs = v, true
			case "allocs/op":
				m.allocs, m.hasAllocs = v, true
			}
		}
		out = append(out, m)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// meanNs is the baseline's central ns/op, used for informational deltas.
func meanNs(ns []float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	var s float64
	for _, v := range ns {
		s += v
	}
	return s / float64(len(ns))
}

// notRun returns the baseline runs, in baseline order, that no input
// line measured.
func notRun(runs []baselineRun, got []measured) []baselineRun {
	seen := make(map[string]bool, len(got))
	for _, m := range got {
		seen[m.name] = true
	}
	var out []baselineRun
	for _, r := range runs {
		if !seen[r.Benchmark] {
			out = append(out, r)
		}
	}
	return out
}

func run() error {
	baselinePath := flag.String("baseline", "BENCH_ingest.json", "baseline JSON recorded by the PR that landed the pipeline")
	tolerance := flag.Float64("tolerance", 0.05, "fractional allocs/op regression allowed on non-zero baselines")
	flag.Parse()

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		return fmt.Errorf("read baseline: %w", err)
	}
	var bf baselineFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("parse baseline %s: %w", *baselinePath, err)
	}
	if len(bf.Entries) == 0 {
		return fmt.Errorf("baseline %s has no entries", *baselinePath)
	}
	// The newest entry is authoritative; older ones are the trajectory.
	latest := bf.Entries[len(bf.Entries)-1]
	want := make(map[string]baselineRun, len(latest.Runs))
	for _, r := range latest.Runs {
		want[r.Benchmark] = r
	}

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	got, err := parseBenchLines(in)
	if err != nil {
		return fmt.Errorf("parse bench output: %w", err)
	}

	var failures []string
	matched := 0
	for _, m := range got {
		base, ok := want[m.name]
		if !ok {
			continue
		}
		matched++
		if !m.hasAllocs {
			failures = append(failures, fmt.Sprintf("%s: no allocs/op in output (run with -benchmem or b.ReportAllocs)", m.name))
			continue
		}
		switch {
		case base.AllocsPerOp == 0 && m.allocs > 0:
			failures = append(failures, fmt.Sprintf("%s: %.0f allocs/op, baseline is zero-alloc", m.name, m.allocs))
		case base.AllocsPerOp > 0 && m.allocs > base.AllocsPerOp*(1+*tolerance):
			failures = append(failures, fmt.Sprintf("%s: %.0f allocs/op, baseline %.0f (tolerance %.0f%%)",
				m.name, m.allocs, base.AllocsPerOp, *tolerance*100))
		default:
			status := fmt.Sprintf("ok   %-42s %.0f allocs/op (baseline %.0f)", m.name, m.allocs, base.AllocsPerOp)
			if m.hasNs {
				if mean := meanNs(base.NsPerOp); mean > 0 {
					status += fmt.Sprintf("  %7.1f ns/op (baseline mean %.1f, %+.1f%%, not gated)",
						m.nsPerOp, mean, (m.nsPerOp-mean)/mean*100)
				}
			}
			fmt.Println(status)
		}
	}
	for _, r := range notRun(latest.Runs, got) {
		fmt.Printf("not run %-42s (baseline %.0f allocs/op, not gated)\n", r.Benchmark, r.AllocsPerOp)
	}
	if matched == 0 {
		return fmt.Errorf("no benchmark in the input matched the %d baseline runs — wrong -bench pattern?", len(latest.Runs))
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "FAIL "+f)
		}
		return fmt.Errorf("%d allocation regression(s) vs %s", len(failures), *baselinePath)
	}
	fmt.Printf("benchguard: %d/%d baseline benchmarks matched, no allocation regressions\n", matched, len(latest.Runs))
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(1)
	}
}
