package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestNotRunListsUngatedBaselines(t *testing.T) {
	runs := []baselineRun{
		{Benchmark: "BenchmarkIngest1k/batched"},
		{Benchmark: "BenchmarkIngest1k/unbatched", AllocsPerOp: 1},
		{Benchmark: "BenchmarkIngest10k/batched"},
		{Benchmark: "BenchmarkIngest10k/unbatched", AllocsPerOp: 1},
	}
	got, err := parseBenchLines(strings.NewReader(
		"BenchmarkIngest10k/batched-8  100000  2500 ns/op  0 B/op  0 allocs/op\n" +
			"BenchmarkIngest1k/batched-8   100000  2100 ns/op  0 B/op  0 allocs/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, r := range notRun(runs, got) {
		names = append(names, r.Benchmark)
	}
	want := []string{"BenchmarkIngest1k/unbatched", "BenchmarkIngest10k/unbatched"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("notRun = %v, want %v", names, want)
	}
}
