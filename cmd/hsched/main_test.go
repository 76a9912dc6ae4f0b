package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"hsp"
)

// exampleJSON returns Example II.1 in the tool's wire format.
func exampleJSON(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	if err := hsp.EncodeInstance(&buf, hsp.ExampleII1()); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestRunExact(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-algo", "exact", "-gantt"}, strings.NewReader(exampleJSON(t)), &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "optimal makespan = 2") {
		t.Fatalf("missing optimum:\n%s", got)
	}
	if !strings.Contains(got, "migrations") || !strings.Contains(got, "m0") {
		t.Fatalf("missing stats or gantt:\n%s", got)
	}
}

func TestRunTwoApproxAndBest(t *testing.T) {
	for _, algo := range []string{"2approx", "best"} {
		var out bytes.Buffer
		err := run([]string{"-algo", algo}, strings.NewReader(exampleJSON(t)), &out)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if !strings.Contains(out.String(), "LP bound T* = 2") {
			t.Fatalf("%s: missing LP bound:\n%s", algo, out.String())
		}
	}
}

func TestRunLP(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-algo", "lp"}, strings.NewReader(exampleJSON(t)), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "T* = 2") {
		t.Fatalf("missing bound:\n%s", out.String())
	}
}

func TestRunJSONOutput(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-algo", "exact", "-json", "-", "-stats=false"},
		strings.NewReader(exampleJSON(t)), &out)
	if err != nil {
		t.Fatal(err)
	}
	// The JSON document follows the text report; cut at the first brace.
	got := out.String()
	idx := strings.Index(got, "{")
	if idx < 0 {
		t.Fatalf("no JSON in output:\n%s", got)
	}
	s, err := hsp.DecodeSchedule(strings.NewReader(got[idx:]))
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan() != 2 {
		t.Fatalf("decoded makespan = %d, want 2", s.Makespan())
	}
}

func TestRunSVGOutput(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/sched.svg"
	var out bytes.Buffer
	err := run([]string{"-algo", "exact", "-svg", path},
		strings.NewReader(exampleJSON(t)), &out)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "</svg>") {
		t.Fatalf("not an SVG:\n%s", data)
	}
}

// TestGoldenOutputs pins the exact bytes of every algorithm's report on
// two fixed instances (Example II.1 and a clustered 12-job workload).
// The goldens were captured before hsched was re-expressed over
// internal/serve, so this test is the byte-identity guarantee of that
// refactor: any drift in the text format or in deterministic solver
// results fails here.
func TestGoldenOutputs(t *testing.T) {
	cases := []struct {
		instance, golden string
		args             []string
	}{
		{"ex_ii1.json", "golden_ex_lp.txt", []string{"-algo", "lp", "-gantt"}},
		{"ex_ii1.json", "golden_ex_2approx.txt", []string{"-algo", "2approx", "-gantt"}},
		{"ex_ii1.json", "golden_ex_best.txt", []string{"-algo", "best", "-gantt"}},
		{"ex_ii1.json", "golden_ex_exact.txt", []string{"-algo", "exact", "-gantt"}},
		{"clustered12.json", "golden_cl_lp.txt", []string{"-algo", "lp"}},
		{"clustered12.json", "golden_cl_2approx.txt", []string{"-algo", "2approx"}},
		{"clustered12.json", "golden_cl_best.txt", []string{"-algo", "best"}},
		{"clustered12.json", "golden_cl_exact.txt", []string{"-algo", "exact"}},
		{"dag_task.json", "golden_dag.txt", []string{"-algo", "dag"}},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			inst, err := os.ReadFile("testdata/" + tc.instance)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile("testdata/" + tc.golden)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := run(tc.args, bytes.NewReader(inst), &out); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("output drifted from %s:\n--- got ---\n%s\n--- want ---\n%s",
					tc.golden, out.Bytes(), want)
			}
		})
	}
}

// TestTwoApproxOffByOneInstance pins a semi-partitioned instance whose
// LP bound was once accepted at 40, one below T* = 41: the unrelated
// relaxation is infeasible at 40, so 2approx failed "contradicting
// Lemma V.1". It must answer with T* = 41 and a makespan within 2·T*.
func TestTwoApproxOffByOneInstance(t *testing.T) {
	inst, err := os.ReadFile("../../internal/relax/testdata/semipart_offbyone.json")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-algo", "2approx"}, bytes.NewReader(inst), &out); err != nil {
		t.Fatal(err)
	}
	var mk, tStar, bound int64
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "makespan = ") {
			if _, err := fmt.Sscanf(line, "makespan = %d  (LP bound T* = %d; guarantee ≤ 2·T* = %d)", &mk, &tStar, &bound); err != nil {
				t.Fatalf("%q: %v", line, err)
			}
		}
	}
	if tStar != 41 || mk <= 0 || mk > 82 {
		t.Fatalf("T* = %d, makespan = %d; want T* = 41 and makespan ≤ 82:\n%s", tStar, mk, out.String())
	}
}

// dagTaskJSON returns a small deterministic DAG-task document.
func dagTaskJSON(t *testing.T) string {
	t.Helper()
	task, err := hsp.GenerateDAG(hsp.DAGConfig{
		Machines: 4, Nodes: 24, Layers: 4, EdgeProb: 0.4, Seed: 11,
		MinWork: 2, MaxWork: 12, MinMem: 1, MaxMem: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := hsp.EncodeDAG(&buf, task); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestRunDAG(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-algo", "dag"}, strings.NewReader(dagTaskJSON(t)), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"scenario dag:", "scenario LB =", "guarantee ≤ 2·LB"} {
		if !strings.Contains(got, want) {
			t.Fatalf("missing %q in:\n%s", want, got)
		}
	}
}

func TestRunDAGRejectsBadTask(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-algo", "dag"},
		strings.NewReader(`{"machines":2,"nodes":[{"work":1},{"work":1}],"edges":[[0,1],[1,0]]}`), &out)
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cyclic task accepted: %v", err)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, strings.NewReader("garbage"), &out); err == nil {
		t.Fatal("garbage accepted")
	}
	if err := run([]string{"-algo", "wat"}, strings.NewReader(exampleJSON(t)), &out); err == nil {
		t.Fatal("unknown algo accepted")
	}
	if err := run([]string{"-input", "/no/such/file"}, strings.NewReader(""), &out); err == nil {
		t.Fatal("missing file accepted")
	}
}
