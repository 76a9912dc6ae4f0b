package unrelated

import (
	"context"
	"math/rand"
	"testing"

	"hsp/internal/testdiff"
)

// trivialSearchT is the oracle for the certified bracket: the cold
// binary search over [max_j min_i p_ij, Σ_j min_i p_ij], the bracket the
// search used before its ends were certified.
func trivialSearchT(t *testing.T, in *Instance) int64 {
	var lo, hi int64 = 1, 0
	for j := 0; j < in.N(); j++ {
		v, _ := in.minProc(j)
		hi += v
		if v > lo {
			lo = v
		}
	}
	if hi < lo {
		hi = lo
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		ok, _, err := FeasibleLPWS(context.Background(), in, mid, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// TestBracketContainsTStar checks lo ≤ T* ≤ hi, and T* against the
// trivial-bracket oracle, on the unrelated projections of the
// differential corpus and on random instances with forbidden pairs.
func TestBracketContainsTStar(t *testing.T) {
	var cases []*Instance
	for _, c := range testdiff.Cases(1, 120) {
		cases = append(cases, FromProjection(c.In.UnrelatedProjection()))
	}
	rng := rand.New(rand.NewSource(5))
	for k := 0; k < 60; k++ {
		cases = append(cases, randInstance(rng, 1+rng.Intn(12), 1+rng.Intn(5), 0.3))
	}
	for k, in := range cases {
		lo, hi, err := Bracket(in)
		if err != nil {
			t.Fatalf("case %d: %v", k, err)
		}
		tStar, x, err := MinFeasibleT(in)
		if err != nil {
			t.Fatalf("case %d: %v", k, err)
		}
		if tStar < lo || tStar > hi {
			t.Fatalf("case %d: T*=%d outside the certified bracket [%d, %d]", k, tStar, lo, hi)
		}
		if want := trivialSearchT(t, in); tStar != want {
			t.Fatalf("case %d: T*=%d, but the search over the trivial bracket finds %d", k, tStar, want)
		}
		if _, err := RoundVertex(in, tStar, x); err != nil {
			t.Fatalf("case %d: %v", k, err)
		}
	}
}
