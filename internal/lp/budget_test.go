package lp

import (
	"context"
	"testing"
)

// chainLP builds Σ_i x_i = 1 with one bound row x_i ≤ u_i per variable.
// With every bound at 1, the cold solve makes x_0 basic in one pivot.
// Closing the first c bounds forces a warm re-entry from that basis
// down a chain of c dual pivots (x_1, then x_2, ... enter in turn),
// while the cold solve stays at one or two pivots.
func chainLP(k, c int) *Problem {
	p := NewProblem(k)
	idx := make([]int, k)
	one := make([]float64, k)
	for i := range idx {
		idx[i], one[i] = i, 1
	}
	p.MustAddConstraint(idx, one, EQ, 1)
	for i := 0; i < k; i++ {
		u := 1.0
		if i < c {
			u = 0
		}
		p.MustAddConstraint([]int{i}, []float64{1}, LE, u)
	}
	return p
}

// TestWarmBudgetFallsBackCold pins the dual re-entry budget: a warm
// start may spend at most warmPivotFactor times the pivots of the cold
// solve that built its anchor. A re-entry within the budget answers
// warm; one past it falls back, and the cold path gives the answer, so
// the verdict and vertex are the cold ones either way.
func TestWarmBudgetFallsBackCold(t *testing.T) {
	const k = 8
	ctx := context.Background()
	ws := NewWorkspace()
	anchor, err := chainLP(k, 0).SolveWS(ctx, ws)
	if err != nil || anchor.Status != Optimal {
		t.Fatalf("anchor: %v %v", anchor, err)
	}
	budget := warmPivotFactor * anchor.Iterations
	if budget >= k-1 {
		t.Fatalf("anchor took %d pivots: budget %d leaves no chain to exceed it", anchor.Iterations, budget)
	}
	for _, tc := range []struct {
		closed   int
		wantWarm bool
	}{
		{1, true},      // one dual pivot: inside the budget
		{k - 1, false}, // a k-1 pivot chain: past the budget
	} {
		before := ws.Stats()
		p := chainLP(k, tc.closed)
		sol, err := p.SolveWS(ctx, ws)
		if err != nil {
			t.Fatal(err)
		}
		after := ws.Stats()
		if sol.Warm != tc.wantWarm {
			t.Fatalf("closed=%d: warm=%v, want %v (budget %d, %+v)", tc.closed, sol.Warm, tc.wantWarm, budget, after)
		}
		if !tc.wantWarm && after.WarmFallbacks != before.WarmFallbacks+1 {
			t.Fatalf("closed=%d: no fallback counted: %+v", tc.closed, after)
		}
		cold := NewWorkspace()
		cold.SetWarmStart(false)
		want, err := p.SolveWS(ctx, cold)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != want.Status || sol.Status != Optimal {
			t.Fatalf("closed=%d: status %v, cold %v", tc.closed, sol.Status, want.Status)
		}
		checkFeasible(t, p, sol.X)
		if !tc.wantWarm {
			for i := range want.X {
				if sol.X[i] != want.X[i] {
					t.Fatalf("closed=%d: fallback vertex differs from cold at x[%d]: %g vs %g", tc.closed, i, sol.X[i], want.X[i])
				}
			}
		}
	}
}
