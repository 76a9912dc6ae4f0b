package relax_test

import (
	"context"
	"fmt"
	"os"
	"testing"

	"hsp/internal/model"
	"hsp/internal/relax"
	"hsp/internal/testdiff"
	"hsp/internal/workload"
)

// trivialSearchT is the oracle for the certified bracket: the cold
// binary search over the loose bracket [LowerBoundSimple,
// TrivialUpperBound] that the relaxation's search used before its ends
// were certified.
func trivialSearchT(in *model.Instance) (int64, error) {
	ctx := context.Background()
	ws := relax.NewWorkspace()
	ws.LP.SetWarmStart(false)
	lo, hi := in.LowerBoundSimple(), in.TrivialUpperBound()
	if lo < 1 {
		lo = 1
	}
	if hi < lo {
		hi = lo
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		ok, err := relax.ProbeFeasibleWS(ctx, in, mid, ws)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}

// checkBracket fails unless tStar lies in relax.Bracket(in) and equals
// the oracle's answer.
func checkBracket(in *model.Instance, tStar int64) error {
	lo, hi, err := relax.Bracket(in)
	if err != nil {
		return fmt.Errorf("bracket: %v", err)
	}
	if tStar < lo || tStar > hi {
		return fmt.Errorf("T*=%d outside the certified bracket [%d, %d]", tStar, lo, hi)
	}
	want, err := trivialSearchT(in)
	if err != nil {
		return fmt.Errorf("oracle: %v", err)
	}
	if tStar != want {
		return fmt.Errorf("T*=%d, but the search over the trivial bracket finds %d", tStar, want)
	}
	return nil
}

// TestBracketContainsTStar checks lo ≤ T* ≤ hi, and T* against the
// trivial-bracket oracle, over the differential corpus and the fuzz
// seeds.
func TestBracketContainsTStar(t *testing.T) {
	ctx := context.Background()
	cases := testdiff.Cases(1, 220)
	for i, seed := range fuzzSeeds {
		in, err := workload.Generate(decodeFuzzConfig(seed))
		if err != nil {
			continue
		}
		cases = append(cases, testdiff.Case{Name: fmt.Sprintf("fuzz-seed/%d", i), In: in})
	}
	ws := relax.NewWorkspace()
	narrowed := 0
	for _, c := range cases {
		tStar, _, err := relax.MinFeasibleTWS(ctx, c.In, ws)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if err := checkBracket(c.In, tStar); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if lo, hi, _ := relax.Bracket(c.In); hi-lo < c.In.TrivialUpperBound()-c.In.LowerBoundSimple() {
			narrowed++
		}
	}
	if narrowed*2 < len(cases) {
		t.Fatalf("the certified bracket is narrower than the trivial one on only %d of %d cases", narrowed, len(cases))
	}
}

// TestOffByOneTStar pins a semi-partitioned instance (hgen -topology
// semi-partitioned -machines 7 -jobs 18 -seed 5126671643508408924
// -min-work 5 -max-work 50 -spread 0.4 -overhead 0.25) where phase 1's
// row-count-scaled tolerance accepted T=40 although set 0's load row is
// violated by 6e-5. T* is 41, the exact optimum; at 40 the unrelated
// relaxation the 2-approximation rounds is infeasible too.
func TestOffByOneTStar(t *testing.T) {
	f, err := os.Open("testdata/semipart_offbyone.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	in, err := model.Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tStar, fr, err := relax.MinFeasibleTWS(ctx, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tStar != 41 {
		t.Fatalf("T* = %d, want 41", tStar)
	}
	if err := testdiff.CheckFractional(in, tStar, fr); err != nil {
		t.Fatal(err)
	}
	for _, T := range []int64{40, 41} {
		ok, _, err := relax.FeasibleWS(ctx, in, T, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ok != (T == 41) {
			t.Fatalf("feasible(%d) = %v", T, ok)
		}
	}
}
