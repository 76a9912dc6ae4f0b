package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// runJSON runs the benchmark in process and decodes its last output line.
func runJSON(t *testing.T, workload string, seed int64, seconds string, trace int) *result {
	t.Helper()
	var out bytes.Buffer
	args := []string{
		"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", seconds,
		"-trace", fmt.Sprint(trace), "-setups", "1", "-root", "..",
		"-trace-out", filepath.Join(t.TempDir(), "spans.jsonl"),
	}
	if err := run(context.Background(), args, &out); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", workload, err, out.String())
	}
	return &r
}

// TestMetricsMatchBenchmarkJSON keeps the program's metric and workload
// lists identical to the contract in BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	list := func(defs []metricDef) string {
		var s []string
		for _, d := range defs {
			s = append(s, d.name+" "+d.unit)
		}
		sort.Strings(s)
		return strings.Join(s, ", ")
	}
	declared := func(defs []struct{ Name, Unit string }) string {
		var s []string
		for _, d := range defs {
			s = append(s, d.Name+" "+d.Unit)
		}
		sort.Strings(s)
		return strings.Join(s, ", ")
	}
	if got, want := list(endToEnd), declared(spec.EndToEnd); got != want {
		t.Errorf("end-to-end metrics\n got: %s\nwant: %s", got, want)
	}
	if got, want := list(perLayer), declared(spec.PerLayer); got != want {
		t.Errorf("per-layer metrics\n got: %s\nwant: %s", got, want)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(workloadNames(), ","), strings.Join(names, ","); got != want {
		t.Errorf("workloads: got %s, want %s", got, want)
	}
}

// TestSmoke runs every workload briefly in both modes: every named metric
// is printed with its unit, and no op fails.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloadNames() {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			t.Run(fmt.Sprintf("%s/trace=%d", w, trace), func(t *testing.T) {
				r := runJSON(t, w, 3, "1", trace)
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
				}
				if len(r.Metrics) != len(defs) {
					t.Errorf("printed %d metrics, want %d", len(r.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := r.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v (present=%v), want unit %s", d.name, m, ok, d.unit)
					}
					if trace == 0 && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
			})
		}
	}
}

// effortCounts are the per-layer metrics that count solver work; they
// must repeat exactly for a fixed seed.
func effortCounts(r *result) map[string]float64 {
	c := map[string]float64{}
	for name, m := range r.Metrics {
		if strings.HasPrefix(name, "lp.") && name != "lp.us_per_pivot" ||
			name == "relax.probes_per_op" || strings.HasPrefix(name, "exact.") && name != "exact.solve_ms" {
			c[name] = m.Value
		}
	}
	return c
}

// TestEffortCountsRepeat pins the deterministic effort counts: two runs
// on one seed agree exactly, and a different seed reaches the generator.
func TestEffortCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs traced workloads")
	}
	const w = "serve-distinct"
	a := effortCounts(runJSON(t, w, 5, "1", 1))
	b := effortCounts(runJSON(t, w, 5, "1.5", 1))
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed, different counts:\n%v\n%v", a, b)
	}
	if a["lp.pivots_per_op"] == 0 {
		t.Fatalf("no LP work counted: %v", a)
	}
	c := effortCounts(runJSON(t, w, 6, "1", 1))
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatalf("seeds 5 and 6 gave identical counts %v", a)
	}
}
