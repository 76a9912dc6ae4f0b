// Command perfbench is the repository's benchmark: one command that runs
// a named workload against the hspd daemon or the hbench suite in
// process, checks every answer, and prints every metric by name with its
// unit. See README.md for the workloads, the metrics and what each layer
// metric is expected to move.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload serve-distinct --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}
// with the end-to-end metrics for --trace 0 and the per-layer metrics
// for --trace 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
)

// options configure one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	setups   int    // set-ups per run; setup_s is their median
	root     string // repository root (hbench goldens live under it)
	traceOut string // where a traced run writes its spans; "" = nowhere
	log      io.Writer
}

// workloads are the benchmark's workloads, in BENCHMARK.json's order.
var workloads = []struct {
	name string
	run  func(context.Context, *options) (*outcome, error)
}{
	{"serve-distinct", func(ctx context.Context, o *options) (*outcome, error) {
		return runServe(ctx, distinctInputs, o)
	}},
	{"serve-hot", func(ctx context.Context, o *options) (*outcome, error) {
		return runServe(ctx, hotInputs, o)
	}},
	{"suite-quick", runSuite},
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		stop()
		os.Exit(1)
	}
}

// run parses the flags, runs the workload and prints its result.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	o := &options{log: stdout}
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; all inputs derive from it")
	fs.Float64Var(&o.seconds, "seconds", 15, "length of the timed phase")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	fs.IntVar(&o.setups, "setups", 5, "set-ups per run (setup_s is their median)")
	fs.StringVar(&o.root, "root", ".", "repository root")
	fs.StringVar(&o.traceOut, "trace-out", "", `span file of a traced run (default <root>/.bench_build/traces/<workload>-<seed>.jsonl)`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var runWorkload func(context.Context, *options) (*outcome, error)
	for _, w := range workloads {
		if w.name == o.workload {
			runWorkload = w.run
		}
	}
	switch {
	case runWorkload == nil:
		return fmt.Errorf("unknown -workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	case trace != 0 && trace != 1:
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	case o.seconds <= 0 || o.setups < 1:
		return errors.New("-seconds and -setups must be positive")
	}
	o.trace = trace == 1
	// One core: every workload keeps one op in flight, and on a shared
	// 2-core VM the second core is where the host's other load shows. In
	// runs paired in time, one core read 1.01–1.04 suite-quick passes/s
	// where two read 0.72–0.99, and 15.4k–17.7k serve-hot ops/s where two
	// read 13.4k–15.8k.
	runtime.GOMAXPROCS(1)
	if o.trace && o.traceOut == "" {
		o.traceOut = filepath.Join(o.root, ".bench_build", "traces", fmt.Sprintf("%s-%d.jsonl", o.workload, o.seed))
	}
	out, err := runWorkload(ctx, o)
	if err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: failed op: %s\n", p)
	}
	res, err := out.shape(o.trace)
	if err != nil {
		return err
	}
	return writeResult(stdout, res)
}

// finishTrace prints the per-layer self-time table and writes the spans.
func finishTrace(o *options, out *outcome, spans []span) error {
	fmt.Fprintf(o.log, "%s: self time per layer (%d spans)\n", o.workload, len(spans))
	printSelfTimes(o.log, spans)
	if off, on := out.values["trace.ops_per_s_off"], out.values["trace.ops_per_s_on"]; off > 0 {
		fmt.Fprintf(o.log, "%s: tracing overhead %.2f%% (untraced %.3f ops/s, traced %.3f ops/s)\n",
			o.workload, out.values["trace.overhead_pct"], off, on)
	}
	if o.traceOut == "" {
		return nil
	}
	return writeSpans(o.traceOut, spans)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}
