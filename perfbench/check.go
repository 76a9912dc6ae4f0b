package main

import (
	"encoding/json"
	"fmt"

	"hsp/internal/model"
	"hsp/internal/serve"
)

// checkAnswer verifies one HTTP answer body against the paper guarantee
// of every request item it answers, and returns the certified
// makespan/T* ratios it carries.
func checkAnswer(r *request, body []byte) ([]float64, error) {
	var resps []serve.Response
	if r.path == "/v1/batch" {
		if err := json.Unmarshal(body, &resps); err != nil {
			return nil, fmt.Errorf("undecodable batch answer: %w", err)
		}
		if len(resps) != len(r.items) {
			return nil, fmt.Errorf("batch answered %d of %d items", len(resps), len(r.items))
		}
	} else {
		resps = make([]serve.Response, 1)
		if err := json.Unmarshal(body, &resps[0]); err != nil {
			return nil, fmt.Errorf("undecodable answer: %w", err)
		}
	}
	var ratios []float64
	for k, e := range r.items {
		ratio, err := checkItem(e, &resps[k])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.algo, err)
		}
		if ratio > 0 {
			ratios = append(ratios, ratio)
		}
	}
	return ratios, nil
}

// checkItem judges one answer; the returned ratio is makespan/T* for the
// answers that certify one (0 otherwise).
func checkItem(e expect, resp *serve.Response) (float64, error) {
	if resp.Error != "" {
		return 0, fmt.Errorf("answered error %q", resp.Error)
	}
	if resp.Algo != e.algo {
		return 0, fmt.Errorf("answered algo %q", resp.Algo)
	}
	switch e.algo {
	case serve.Algo2Approx, serve.AlgoBest:
		if len(resp.Assignment) != e.n {
			return 0, fmt.Errorf("assignment covers %d of %d jobs", len(resp.Assignment), e.n)
		}
		return certified(resp.Makespan, resp.LPBound)
	case serve.AlgoLP:
		if resp.LPBound < e.lb || resp.LPBound > e.ub {
			return 0, fmt.Errorf("T*=%d outside the trivial bounds [%d,%d]", resp.LPBound, e.lb, e.ub)
		}
		return 0, nil
	case serve.AlgoExact:
		a := model.Assignment(resp.Assignment)
		switch {
		case !resp.Optimal:
			return 0, fmt.Errorf("answer not marked optimal")
		case resp.Makespan < e.lb:
			return 0, fmt.Errorf("makespan %d below the trivial lower bound %d", resp.Makespan, e.lb)
		case a.Check(e.exact, resp.Makespan) != nil:
			return 0, fmt.Errorf("assignment does not realize makespan %d: %v", resp.Makespan, a.Check(e.exact, resp.Makespan))
		case a.MinMakespan(e.exact) != resp.Makespan:
			return 0, fmt.Errorf("assignment realizes %d, answer claims %d", a.MinMakespan(e.exact), resp.Makespan)
		}
		return 0, nil
	case serve.AlgoRT:
		if resp.Verdict != "schedulable" || resp.Frame != e.frame || resp.Makespan > e.frame {
			return 0, fmt.Errorf("verdict %q makespan %d at frame %d, want schedulable at %d", resp.Verdict, resp.Makespan, resp.Frame, e.frame)
		}
		return certified(resp.Makespan, resp.LPBound)
	case serve.AlgoDAG:
		if resp.Scenario != "dag" || resp.ScenarioLB <= 0 || resp.Segments <= 0 {
			return 0, fmt.Errorf("scenario metadata missing: %+v", resp)
		}
		if resp.Makespan > 2*resp.ScenarioLB {
			return 0, fmt.Errorf("makespan %d above 2·LB=%d", resp.Makespan, 2*resp.ScenarioLB)
		}
		return certified(resp.Makespan, resp.LPBound)
	case serve.AlgoMemory1:
		return 0, memoryFactors(resp, 3+1e-7)
	case serve.AlgoMemory2:
		return 0, memoryFactors(resp, e.sigma+1e-6)
	}
	return 0, fmt.Errorf("no check for algo %q", e.algo)
}

// certified checks T* ≤ makespan ≤ 2·T* (Theorem V.2) and returns the
// ratio.
func certified(makespan, tStar int64) (float64, error) {
	if tStar <= 0 || makespan < tStar || makespan > 2*tStar {
		return 0, fmt.Errorf("makespan %d outside [T*, 2·T*] for T*=%d", makespan, tStar)
	}
	return float64(makespan) / float64(tStar), nil
}

// memoryFactors checks the bicriteria factors of Theorems VI.1/VI.3 on
// fallback-free roundings, the regime the theorems cover.
func memoryFactors(resp *serve.Response, bound float64) error {
	if resp.Makespan <= 0 || resp.LPBound <= 0 {
		return fmt.Errorf("makespan %d, T_LP %d", resp.Makespan, resp.LPBound)
	}
	if resp.Fallbacks == 0 && (resp.LoadFactor > bound || resp.MemFactor > bound) {
		return fmt.Errorf("factors load=%g mem=%g above %g", resp.LoadFactor, resp.MemFactor, bound)
	}
	return nil
}
