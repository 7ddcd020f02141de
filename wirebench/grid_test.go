package main

import (
	"encoding/json"
	"flag"
	"os"
	"testing"

	"wanfd"
)

var update = flag.Bool("update", false, "rewrite grid_ref.json from the current code")

// gridSizes are the grid sizes the workloads and tests run.
func gridSizes() []gridConfig {
	seen := map[string]bool{}
	var out []gridConfig
	for _, short := range []bool{false, true} {
		for _, w := range workloads(short) {
			if !seen[w.grid.key()] {
				seen[w.grid.key()] = true
				out = append(out, w.grid)
			}
		}
	}
	return out
}

// TestGridReference pins the stored reference: the grid at refSeed must
// reproduce it exactly. With -update it rewrites the file instead.
func TestGridReference(t *testing.T) {
	if testing.Short() && !*update {
		t.Skip("full-size grid takes seconds")
	}
	refs := map[string][]wanfd.QoSReport{}
	for _, g := range gridSizes() {
		out, err := reproduce(g, refSeed)
		if err != nil {
			t.Fatal(err)
		}
		if !gridInvariants(out) {
			t.Fatalf("%s: grid breaks its invariants", g.key())
		}
		refs[g.key()] = out
	}
	if *update {
		b, err := json.MarshalIndent(refs, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("grid_ref.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	var stored map[string][]wanfd.QoSReport
	if err := json.Unmarshal(gridRefJSON, &stored); err != nil {
		t.Fatal(err)
	}
	for k, out := range refs {
		if !sameReports(out, stored[k]) {
			t.Errorf("%s: grid output differs from grid_ref.json", k)
		}
	}
}

// TestGridMismatchFails checks the grid phase counts a reference mismatch
// as a failed operation.
func TestGridMismatchFails(t *testing.T) {
	g := workloads(true)["paper-grid"].grid
	out, err := reproduce(g, refSeed)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]wanfd.QoSReport(nil), out...)
	bad[3].PA += 1e-6
	if sameReports(out, bad) {
		t.Fatal("a perturbed P_A compares equal")
	}
	bad = append([]wanfd.QoSReport(nil), out...)
	bad[0].Detected++
	if gridInvariants(bad) {
		t.Fatal("Detected+Missed != Crashes passes the invariants")
	}
}
