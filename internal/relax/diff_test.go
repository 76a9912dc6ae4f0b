package relax_test

import (
	"context"
	"testing"

	"hsp/internal/relax"
	"hsp/internal/testdiff"
)

// TestDifferentialWarmVsCold drives the differential harness over 220
// seeded instances: for each one, a warm-starting binary search must
// return the same T* and the bitwise-same witness as the cold oracle,
// and the witness must satisfy the relaxation's constraints.
func TestDifferentialWarmVsCold(t *testing.T) {
	cases := testdiff.Cases(1, 220)
	if len(cases) < 200 {
		t.Fatalf("only %d cases generated", len(cases))
	}
	ctx := context.Background()
	for _, c := range cases {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			if err := testdiff.RelaxDiff(ctx, c.In); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDifferentialProbeMonotone scans a window of T values around T* on
// a warm workspace: verdicts must match the cold oracle's and be
// monotone in T (infeasible below T*, feasible at and above it).
func TestDifferentialProbeMonotone(t *testing.T) {
	ctx := context.Background()
	for _, c := range testdiff.Cases(7, 24) {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			if err := testdiff.ProbeMonotone(ctx, c.In, 6); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWarmStalenessInterleaved interleaves structurally different
// instances on one workspace: the warm basis retained for instance A
// must be discarded — not misapplied — when instance B arrives, so
// every verdict matches a fresh-workspace solve.
func TestWarmStalenessInterleaved(t *testing.T) {
	ctx := context.Background()
	cases := testdiff.Cases(11, 12)
	shared := relax.NewWorkspace()
	// Two passes over the cases, alternating direction, so each instance
	// is seen right after a differently-shaped one (and once more later,
	// after the workspace grew on bigger instances in between).
	order := make([]int, 0, 2*len(cases))
	for i := range cases {
		order = append(order, i)
	}
	for i := len(cases) - 1; i >= 0; i-- {
		order = append(order, i)
	}
	for _, i := range order {
		c := cases[i]
		tShared, frShared, err := relax.MinFeasibleTWS(ctx, c.In, shared)
		if err != nil {
			t.Fatalf("%s shared: %v", c.Name, err)
		}
		fresh := relax.NewWorkspace()
		tFresh, frFresh, err := relax.MinFeasibleTWS(ctx, c.In, fresh)
		if err != nil {
			t.Fatalf("%s fresh: %v", c.Name, err)
		}
		if tShared != tFresh {
			t.Fatalf("%s: shared-ws T*=%d, fresh T*=%d", c.Name, tShared, tFresh)
		}
		for s := range frShared.X {
			for j := range frShared.X[s] {
				if frShared.X[s][j] != frFresh.X[s][j] {
					t.Fatalf("%s: witness differs at x[%d][%d]", c.Name, s, j)
				}
			}
		}
	}
}

// TestWarmStartActuallyFires guards the point of the whole exercise: a
// bisecting probe sequence on a reused workspace must answer a
// meaningful share of probes from the warm path, with strictly fewer
// pivots than cold. The sequence bisects the loose bracket
// [LowerBoundSimple, TrivialUpperBound] rather than calling
// MinFeasibleTWS, whose certified bracket leaves too few probes per
// search to exercise re-entry; every verdict must match the cold one.
func TestWarmStartActuallyFires(t *testing.T) {
	ctx := context.Background()
	var warmHits, probes, warmPivots, coldPivots int
	for _, c := range testdiff.Cases(3, 40) {
		warm := relax.NewWorkspace()
		cold := relax.NewWorkspace()
		cold.LP.SetWarmStart(false)
		lo, hi := c.In.LowerBoundSimple(), c.In.TrivialUpperBound()
		for lo < hi {
			mid := lo + (hi-lo)/2
			okWarm, err := relax.ProbeFeasibleWS(ctx, c.In, mid, warm)
			if err != nil {
				t.Fatalf("%s: warm probe T=%d: %v", c.Name, mid, err)
			}
			okCold, err := relax.ProbeFeasibleWS(ctx, c.In, mid, cold)
			if err != nil {
				t.Fatalf("%s: cold probe T=%d: %v", c.Name, mid, err)
			}
			if okWarm != okCold {
				t.Fatalf("%s: verdicts differ at T=%d: warm=%v cold=%v", c.Name, mid, okWarm, okCold)
			}
			if okWarm {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		st := warm.Stats()
		warmHits += st.LP.WarmHits
		probes += st.Probes
		warmPivots += st.LP.Pivots
		coldPivots += cold.Stats().LP.Pivots
	}
	if probes == 0 || warmHits*2 < probes {
		t.Fatalf("warm path answered %d of %d probes — warm start effectively off", warmHits, probes)
	}
	if warmPivots*2 >= coldPivots {
		t.Fatalf("warm probes spent %d pivots vs %d cold — no meaningful saving", warmPivots, coldPivots)
	}
	t.Logf("warm hits %d/%d probes, pivots %d vs %d cold (%.1fx)",
		warmHits, probes, warmPivots, coldPivots, float64(coldPivots)/float64(warmPivots))
}
