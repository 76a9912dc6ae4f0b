package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. The two lists below
// are the benchmark's contract: BENCHMARK.json declares the same names,
// and every run prints every name of its list (a per-layer metric that a
// workload does not exercise reads 0).
type metricDef struct{ name, unit string }

// endToEnd is what a user of hspd or hbench sees; printed with -trace 0.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"approx_ratio", "ratio"},
	{"setup_s", "s"},
}

// perLayer splits the same run by repo module; printed with -trace 1.
// p99_ms, cpu_ms_per_op and rss_peak_mb are the traced run's
// whole-program figures. Between runs the shared machine moves the first
// two by more than a regression bound allows, as they rest on the slowest
// ops and on every core; the peak RSS moves with where the collector's
// cycles fall (16.3–24.4 MB over five suite-quick runs).
var perLayer = []metricDef{
	{"p99_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"rss_peak_mb", "MB"},
	{"http.handler_ms", "ms"},
	{"http.client_ms", "ms"},
	{"serve.do_ms", "ms"},
	{"serve.submit_ms", "ms"},
	{"serve.shed", "count"},
	{"serve.failed", "count"},
	{"serve.canceled", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.lookups", "count"},
	{"cache.misses", "count"},
	{"cache.evictions", "count"},
	{"cache.collapsed", "count"},
	{"cache.key_us", "us"},
	{"model.decode_us", "us"},
	{"serve.encode_us", "us"},
	{"relax.probes_per_op", "count"},
	{"relax.search_ms", "ms"},
	{"lp.solves_per_op", "count"},
	{"lp.pivots_per_op", "count"},
	{"lp.warm_hit_ratio", "ratio"},
	{"lp.warm_pivots_per_op", "count"},
	{"lp.warm_fallbacks", "count"},
	{"lp.us_per_pivot", "us"},
	{"approx.round_ms", "ms"},
	{"hier.schedule_ms", "ms"},
	{"sched.validate_ms", "ms"},
	{"exact.visited_per_op", "count"},
	{"exact.canonical_per_op", "count"},
	{"exact.solve_ms", "ms"},
	{"rt.test_ms", "ms"},
	{"memcap.model1_ms", "ms"},
	{"memcap.model2_ms", "ms"},
	{"dag.compile_ms", "ms"},
	{"dag.segments", "count"},
	{"expt.E9_ms", "ms"},
	{"expt.E10_ms", "ms"},
	{"expt.E12_ms", "ms"},
	{"expt.E13_ms", "ms"},
	{"expt.E15_ms", "ms"},
	{"expt.other_ms", "ms"},
	{"go.alloc_kb_per_op", "KB"},
	{"go.gc_cycles_per_op", "count"},
	{"go.gc_pause_ms", "ms"},
	{"replay.ops", "count"},
	{"trace.ops_per_s_on", "1/s"},
	{"trace.ops_per_s_off", "1/s"},
	{"trace.overhead_pct", "%"},
}

// metric is one value as printed.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what one workload run measured, before it is shaped into
// the printed result.
type outcome struct {
	attempted, failed int64
	problems          []string // first few failed checks, for stderr
	values            map[string]float64
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

// fail records a failed op with its reason; only the first few reasons
// are kept.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 5 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// shape builds the printed result for the requested metric list. A
// missing end-to-end metric is a benchmark bug and fails the run.
func (o *outcome) shape(traced bool) (*result, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	r := &result{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok && !traced {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		r.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return r, nil
}

// writeResult prints the result as one JSON line.
func writeResult(w io.Writer, r *result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// quantile is the nearest-rank q-quantile of an ascending-sorted slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	return sorted[k]
}

// median of an unsorted slice (which it sorts).
func median(v []float64) float64 {
	sort.Float64s(v)
	n := len(v)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// mean of a slice; 0 for an empty one.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// phase brackets a timed phase for the Go runtime statistics.
type phase struct {
	start time.Time
	mem   runtime.MemStats
}

func beginPhase() *phase {
	p := &phase{}
	runtime.ReadMemStats(&p.mem)
	p.start = time.Now()
	return p
}

// finish records the figures read once per run: the Go runtime deltas per
// successful op and the process's peak RSS.
func (p *phase) finish(o *outcome, ok int) error {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if ok == 0 {
		return fmt.Errorf("no op succeeded")
	}
	n := float64(ok)
	o.values["go.alloc_kb_per_op"] = float64(after.TotalAlloc-p.mem.TotalAlloc) / 1024 / n
	o.values["go.gc_cycles_per_op"] = float64(after.NumGC-p.mem.NumGC) / n
	o.values["go.gc_pause_ms"] = float64(after.PauseTotalNs-p.mem.PauseTotalNs) / 1e6
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	o.values["rss_peak_mb"] = rss
	return nil
}

// A shared machine slows identical work by up to 2× for seconds at a
// time and by a third for minutes: on a shared 2-core VM, the CPU time per
// serve-distinct request read 2.4 ms and 3.4 ms in two runs a minute
// apart, and in nine 12 s runs of one fixed block of three solves the
// block's median time ranged over 17.8–32.6 ms and its 10th percentile
// over 15.0–18.9 ms, but its fastest repetition over 13.8–15.7 ms. The
// machine only ever adds time, so the timing metrics read the best of many
// repetitions of the same work: of one item's repetitions, or of a run's
// passes.

// best is the least of repeated time measurements.
func best(v []float64) float64 { return slices.Min(v) }

// mark is the wall clock and process CPU time at the start of a pass.
type mark struct {
	at  time.Time
	cpu time.Duration
}

func markNow() mark { return mark{at: time.Now(), cpu: cpuTime()} }

// passCPU records cpu_ms_per_op of a closed loop whose op sequence is
// cut into passes: marks[k] is the start of pass k and ops[k] counts its
// successful ops. The figure is the least over the complete passes (a pass
// is complete when the next has started) of the process's CPU time per op;
// only a run too short to complete a pass falls back on its partial last
// pass, which ends at marks[len(marks)-1].
func (o *outcome) passCPU(marks []mark, ops []int) error {
	var cpu []float64
	add := func(k int) {
		if ops[k] > 0 {
			cpu = append(cpu, ms(marks[k+1].cpu-marks[k].cpu)/float64(ops[k]))
		}
	}
	for k := 0; k+2 < len(marks); k++ {
		add(k)
	}
	if len(cpu) == 0 && len(marks) >= 2 {
		add(len(marks) - 2)
	}
	if len(cpu) == 0 {
		return fmt.Errorf("no op completed in a pass")
	}
	o.values["cpu_ms_per_op"] = best(cpu)
	return nil
}

// requests records ops_per_s, p50_ms and p99_ms of a closed loop of
// clients that cycles through a fixed sequence of requests, from the best
// round trip at each position of the sequence (at[j] in ms; 0 = never
// answered): the quantiles are over the positions, and the throughput is
// the clients in flight over the positions' mean latency (Little's law).
func (o *outcome) requests(at []float64, clients int) {
	var times []float64
	for _, b := range at {
		if b > 0 {
			times = append(times, b)
		}
	}
	sort.Float64s(times)
	o.values["ops_per_s"] = float64(clients) * 1000 / mean(times)
	o.values["p50_ms"] = quantile(times, 0.50)
	o.values["p99_ms"] = quantile(times, 0.99)
}

// itemized records ops_per_s, cpu_ms_per_op, p50_ms and p99_ms of a
// workload that repeats a fixed list of items in passes: each item's wall
// and CPU time is the best of its repetitions, an op is itemsPerOp items,
// and the latency quantiles are over the items' times.
func (o *outcome) itemized(lat, cpu [][]float64, itemsPerOp int) {
	var wall, work float64
	times := make([]float64, 0, len(lat))
	for i := range lat {
		if len(lat[i]) == 0 {
			continue // every pass failed this item; counted as failed ops
		}
		t := best(lat[i])
		times = append(times, t)
		wall += t
		work += best(cpu[i])
	}
	ops := float64(len(times)) / float64(itemsPerOp)
	sort.Float64s(times)
	o.values["ops_per_s"] = 1000 * ops / wall
	o.values["cpu_ms_per_op"] = work / ops
	o.values["p50_ms"] = quantile(times, 0.50)
	o.values["p99_ms"] = quantile(times, 0.99)
}

// overhead records the tracing overhead of a closed loop whose ops
// alternate between traced and untraced, from the two classes' mean
// latencies in ms: each class's throughput is clients / mean latency
// (Little's law), and the overhead is the traced class's throughput loss.
func (o *outcome) overhead(clients int, on, off float64) {
	if on <= 0 || off <= 0 {
		return
	}
	tOn := float64(clients) * 1000 / on
	tOff := float64(clients) * 1000 / off
	o.values["trace.ops_per_s_on"] = tOn
	o.values["trace.ops_per_s_off"] = tOff
	o.values["trace.overhead_pct"] = 100 * (tOff - tOn) / tOff
}
