package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"hsp/internal/expt"
)

// suite-quick runs hbench's quick paper, rt, memcap and dag packs in
// process, one experiment at a time on one goroutine; one pass over the
// four packs is one op. Every pack's stable JSONL must be byte-identical
// to hbench's committed golden, which pins the suite seed.
const suiteSeed = 7

var suitePacks = []string{"paper", "rt", "memcap", "dag"}

// suiteTimed are the experiments reported on their own; the rest are
// summed into expt.other_ms.
var suiteTimed = []string{"E9", "E10", "E12", "E13", "E15"}

type suite struct {
	ids    [][]string // per pack
	golden [][]byte   // per pack
}

// loadSuite reads the goldens in place from the checkout.
func loadSuite(root string) (*suite, error) {
	s := &suite{}
	for _, pk := range suitePacks {
		ids, err := expt.PackIDs(pk)
		if err != nil {
			return nil, err
		}
		g, err := os.ReadFile(filepath.Join(root, "cmd", "hbench", "testdata", "golden_quick_"+pk+".jsonl"))
		if err != nil {
			return nil, err
		}
		s.ids = append(s.ids, ids)
		s.golden = append(s.golden, g)
	}
	return s, nil
}

// sample is one experiment run's wall and CPU time in ms.
type sample struct{ wall, cpu float64 }

// pass runs the four packs in the given order and checks each against
// its golden. It returns each experiment's times and the mean of E6's
// measured ALG/T* column.
func (s *suite) pass(ctx context.Context, tr *tracer, req int64, order []int) (map[string]sample, float64, error) {
	r := expt.Runner{Suite: expt.Suite{Quick: true, Seed: suiteSeed}, Workers: 1}
	times := map[string]sample{}
	ratio := 0.0
	root := tr.start("pass", req, 0)
	defer root.end()
	for _, pk := range order {
		var results []expt.Result
		for _, id := range s.ids[pk] {
			c0 := cpuTime()
			sp := tr.start("expt."+id, req, root.id)
			res, err := r.Run(ctx, []string{id})
			d := sp.end()
			times[id] = sample{wall: ms(d), cpu: ms(cpuTime() - c0)}
			if err != nil {
				return nil, 0, err
			}
			results = append(results, res...)
		}
		var buf bytes.Buffer
		if err := expt.WriteJSON(&buf, results, expt.JSONOptions{}); err != nil {
			return nil, 0, err
		}
		if !bytes.Equal(buf.Bytes(), s.golden[pk]) {
			return nil, 0, fmt.Errorf("pack %s: stable JSONL differs from golden_quick_%s.jsonl", suitePacks[pk], suitePacks[pk])
		}
		for _, res := range results {
			if res.ID == "E6" {
				var err error
				if ratio, err = e6Ratio(res); err != nil {
					return nil, 0, err
				}
			}
		}
	}
	return times, ratio, nil
}

// e6Ratio is the mean of E6's "avg ALG/T*" column.
func e6Ratio(res expt.Result) (float64, error) {
	col := -1
	for k, c := range res.Table.Columns {
		if c == "avg ALG/T*" {
			col = k
		}
	}
	if col < 0 {
		return 0, fmt.Errorf("E6 has no avg ALG/T* column")
	}
	var v []float64
	for _, row := range res.Table.Rows {
		x, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			return 0, fmt.Errorf("E6 ratio cell %q: %w", row[col], err)
		}
		v = append(v, x)
	}
	return mean(v), nil
}

// packOrder is pass k's seeded pack order.
func packOrder(seed int64, k int) []int {
	return newRand(seed, streamSuite, k).Perm(len(suitePacks))
}

func runSuite(ctx context.Context, o *options) (*outcome, error) {
	out := newOutcome()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var s *suite
	var setups []float64
	for k := 0; k < o.setups; k++ {
		t0 := time.Now()
		var err error
		if s, err = loadSuite(o.root); err != nil {
			return nil, err
		}
		if _, _, err := s.pass(ctx, nil, 0, packOrder(o.seed, -1-k)); err != nil {
			return nil, fmt.Errorf("warm-up pass: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	out.values["setup_s"] = median(setups)

	var on, off, ratios, passLat []float64
	perExp := map[string][]sample{}
	ok := 0
	p := beginPhase()
	deadline := p.start.Add(time.Duration(o.seconds * float64(time.Second)))
	for k := 0; k == 0 || time.Now().Before(deadline); k++ {
		traced := tr != nil && k%2 == 1
		ptr := tr
		if !traced {
			ptr = nil
		}
		t0 := time.Now()
		times, ratio, err := s.pass(ctx, ptr, int64(k), packOrder(o.seed, k))
		d := ms(time.Since(t0))
		out.attempted++
		if err != nil {
			out.fail("pass %d: %v", k, err)
			continue
		}
		ok++
		passLat = append(passLat, d)
		ratios = append(ratios, ratio)
		if traced {
			on = append(on, d)
		} else if tr != nil {
			off = append(off, d)
		}
		for id, t := range times {
			perExp[id] = append(perExp[id], t)
		}
	}
	elapsed := time.Since(p.start)
	if err := p.finish(out, ok); err != nil {
		return nil, fmt.Errorf("%v (%v)", err, out.problems)
	}
	// One op is one pass: its latency (p50), the throughput and the CPU
	// per pass sum each experiment's best time over the passes; p99 is the
	// slowest pass as run.
	var lat, cpu [][]float64
	for _, ids := range s.ids {
		for _, id := range ids {
			var w, c []float64
			for _, t := range perExp[id] {
				w, c = append(w, t.wall), append(c, t.cpu)
			}
			lat, cpu = append(lat, w), append(cpu, c)
		}
	}
	out.itemized(lat, cpu, len(lat))
	out.values["p50_ms"] = 1000 / out.values["ops_per_s"]
	out.values["p99_ms"] = slices.Max(passLat)
	out.values["approx_ratio"] = mean(ratios)
	fmt.Fprintf(o.log, "%s: sent=%d succeeded=%d failed=%d passes in %.2fs\n",
		o.workload, out.attempted, ok, out.failed, elapsed.Seconds())
	if tr == nil {
		return out, nil
	}
	out.overhead(1, mean(on), mean(off))
	other := 0.0
	for id, ts := range perExp {
		var w []float64
		for _, t := range ts {
			w = append(w, t.wall)
		}
		t := best(w)
		other += t
		for _, named := range suiteTimed {
			if id == named {
				out.values["expt."+id+"_ms"] = t
				other -= t
			}
		}
	}
	out.values["expt.other_ms"] = other
	return out, finishTrace(o, out, tr.snapshot())
}
