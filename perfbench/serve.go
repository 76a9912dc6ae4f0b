package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hsp/internal/approx"
	"hsp/internal/exact"
	"hsp/internal/hier"
	"hsp/internal/memcap"
	"hsp/internal/model"
	"hsp/internal/relax"
	"hsp/internal/rt"
	"hsp/internal/scenario"
	"hsp/internal/sched"
	"hsp/internal/serve"
)

// The serve workloads drive an in-process hspd over loopback HTTP with
// serveClients closed-loop clients: each sends its next request only
// after the previous one is answered, so throughput measures the daemon,
// not an offered rate. Each workload cycles through a fixed sequence of
// requests, so every position of the sequence is sent many times in a run
// and its latency can be read as the best of its repetitions.
//
// One client: on a shared 2-core VM, with serve-distinct's seed fixed and
// runs alternating, one client read 471–499 ops/s where two read
// 884–1154; with both cores busy, the host's other load shows in every
// request.
const (
	serveClients = 1
	serveWorkers = 2

	// distinctBlocks blocks of len(distinctKinds) fresh requests make
	// serve-distinct's sequence, the pool in order. A request comes round
	// again only after the whole pool, more than twice the distinctCache
	// entries, so every lookup misses: the cache sees only misses, inserts
	// and evictions.
	distinctBlocks = 57
	distinctCache  = 256

	// hotPool distinct small requests, drawn Zipf(hotSkew) into a cache of
	// hotCache entries: most requests hit, a minority miss and evict.
	hotPool  = 3000
	hotCache = 256
	hotSkew  = 1.2
	// hotCycle Zipf draws make serve-hot's sequence. One client sends it
	// in the same order every cycle, so from the second cycle on each
	// position meets the same cache state: a hit stays a hit.
	hotCycle = 6000

	// ratioOps is how many leading ops of the sequence approx_ratio
	// averages (each distinct request once), so the figure does not
	// depend on how far a run got.
	ratioOps = 2000
	// replayOps leading ops are replayed through the layers in a traced
	// run (a multiple of len(distinctKinds), so every kind is replayed).
	replayOps = 36

	// traceEvery: in a traced run every traceEvery-th op of a client is
	// traced, which keeps serve-hot's span file to a few MB.
	traceEvery = 8

	// Headers carrying a traced op's request and client span to the
	// handler wrapper.
	hdrReq  = "X-Perfbench-Req"
	hdrSpan = "X-Perfbench-Span"
)

// serveInputs is one serve workload's generated traffic.
type serveInputs struct {
	cache int        // CacheEntries of the daemon
	warm  []*request // the warm-up pass, sent before timing
	pool  []*request // the timed requests
	order []int32    // the cycled sequence of pool indices; nil = the pool in order
}

// cycle is the length of the cycled request sequence.
func (in *serveInputs) cycle() int {
	if in.order != nil {
		return len(in.order)
	}
	return len(in.pool)
}

// distinctInputs: a fresh instance per request, warm-up drawn from a
// disjoint stream. The warm-up ignores the seed: its solves (an exact one
// among them) cost what their instances hold, and set-up time should not
// move with the seed.
func distinctInputs(seed int64) (*serveInputs, error) {
	blocks := func(seed int64, stream uint64, n int) ([]*request, error) {
		bs, err := genEach(n, func(b int) ([]*request, error) { return distinctBlock(seed, stream, b) })
		var all []*request
		for _, b := range bs {
			all = append(all, b...)
		}
		return all, err
	}
	warm, err := blocks(0, streamWarm, 2)
	if err != nil {
		return nil, err
	}
	pool, err := blocks(seed, streamDistinct, distinctBlocks)
	if err != nil {
		return nil, err
	}
	return &serveInputs{cache: distinctCache, warm: warm, pool: pool}, nil
}

// hotInputs: a Zipf sequence over hotPool small requests (pool index =
// popularity rank); the warm-up sends the hotCache most popular ones, so
// the timed phase starts with a full cache. The sequence of ranks ignores
// the seed, like the requests' shapes: every seed's traffic meets the same
// hits, misses and evictions, and the seed draws the requests' contents.
func hotInputs(seed int64) (*serveInputs, error) {
	pool, err := genEach(hotPool, func(i int) (*request, error) { return hotRequest(seed, i) })
	if err != nil {
		return nil, err
	}
	in := &serveInputs{cache: hotCache, pool: pool}
	in.warm = in.pool[:hotCache]
	z := rand.NewZipf(newRand(0, streamZipf, 0), hotSkew, 1, hotPool-1)
	in.order = make([]int32, hotCycle)
	for i := range in.order {
		in.order[i] = int32(z.Uint64())
	}
	return in, nil
}

// serveEnv is a running in-process daemon and its client.
type serveEnv struct {
	inputs *serveInputs
	srv    *serve.Server
	hs     *http.Server
	done   chan struct{} // closed when hs.Serve returns
	base   string
	client *http.Client
}

// startServe does one set-up: generate and encode the traffic, start the
// daemon on a listener the benchmark already holds (so it is ready when
// Serve is called), and send the warm-up pass.
func startServe(ctx context.Context, gen func(int64) (*serveInputs, error), o *options, tr *tracer) (*serveEnv, error) {
	inputs, err := gen(o.seed)
	if err != nil {
		return nil, fmt.Errorf("generating requests: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{Workers: serveWorkers, CacheEntries: inputs.cache})
	h := srv.Handler()
	if tr != nil {
		h = traceHandler(tr, h)
	}
	env := &serveEnv{
		inputs: inputs,
		srv:    srv,
		hs:     &http.Server{Handler: h},
		done:   make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}},
	}
	go func() {
		defer close(env.done)
		_ = env.hs.Serve(ln) // returns ErrServerClosed on close
	}()
	var wg sync.WaitGroup
	errs := make([]error, serveClients)
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(inputs.warm); i += serveClients {
				r := inputs.warm[i]
				body, err := env.post(ctx, r, nil)
				if err == nil {
					_, err = checkAnswer(r, body)
				}
				if err != nil {
					errs[c] = fmt.Errorf("warm-up request %d: %w", i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		env.close()
		return nil, err
	}
	return env, nil
}

// close stops the HTTP server and the daemon and waits for both.
func (e *serveEnv) close() {
	_ = e.hs.Close()
	<-e.done
	e.client.CloseIdleConnections()
	e.srv.Close()
}

// post sends one request and returns the 200 answer's body. hdr carries
// the trace headers of a traced op.
func (e *serveEnv) post(ctx context.Context, r *request, hdr http.Header) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// traceHandler wraps the daemon's handler: a request carrying the trace
// headers gets an http.handler span, child of the client's span.
func traceHandler(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(hdrReq)
		if id == "" {
			h.ServeHTTP(w, r)
			return
		}
		req, _ := strconv.ParseInt(id, 10, 64)
		parent, _ := strconv.ParseUint(r.Header.Get(hdrSpan), 10, 64)
		sp := tr.start("http.handler", req, parent)
		h.ServeHTTP(w, r)
		sp.end()
	})
}

// clientLog is one closed-loop client's record of the timed phase, kept
// in place so that it does not grow with the run.
type clientLog struct {
	ok      int
	best    []float64 // best latency (ms) at each position of the cycle; 0 = none
	perPass []int     // successful ops in each cycle
	on, off stat      // traced and untraced ops of a traced run
}

// record notes a successful op at index i of the sequence.
func (lg *clientLog) record(i, cycle int, lat float64) {
	lg.ok++
	if b := lg.best[i%cycle]; b == 0 || lat < b {
		lg.best[i%cycle] = lat
	}
	for len(lg.perPass) <= i/cycle {
		lg.perPass = append(lg.perPass, 0)
	}
	lg.perPass[i/cycle]++
}

// stat accumulates a mean.
type stat struct {
	n   int
	sum float64
}

func (s *stat) add(x float64) { s.n++; s.sum += x }

func (s stat) mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// runServe measures one serve workload.
func runServe(ctx context.Context, gen func(int64) (*serveInputs, error), o *options) (*outcome, error) {
	out := newOutcome()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var env *serveEnv
	var setups []float64
	for k := 0; k < o.setups; k++ {
		if env != nil {
			env.close()
			env = nil // let the previous set-up's requests be collected
		}
		t0 := time.Now()
		var err error
		env, err = startServe(ctx, gen, o, tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer env.close()
	out.values["setup_s"] = median(setups)

	in := env.inputs
	// Answers of the leading ops, kept for approx_ratio and the replay;
	// each index is written by the one client that drew it.
	ratios := make([][]float64, ratioOps)
	bodies := make([][]byte, replayOps)
	cycle := in.cycle()
	poolAt := func(i int) int {
		if in.order != nil {
			return int(in.order[i%cycle])
		}
		return i % cycle
	}
	reqAt := func(i int) *request { return in.pool[poolAt(i)] }

	before := env.srv.Stats()
	var (
		next   atomic.Int64
		failMu sync.Mutex
		wg     sync.WaitGroup
		markMu sync.Mutex
		marks  []mark // marks[k]: when the first op of cycle k was drawn
	)
	logs := make([]clientLog, serveClients)
	p := beginPhase()
	deadline := p.start.Add(time.Duration(o.seconds * float64(time.Second)))
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lg := &logs[c]
			lg.best = make([]float64, cycle)
			for k := 0; time.Now().Before(deadline); k++ {
				i := int(next.Add(1) - 1)
				if i%cycle == 0 {
					markMu.Lock()
					marks = append(marks, markNow())
					markMu.Unlock()
				}
				r := reqAt(i)
				traced := tr != nil && k%traceEvery == traceEvery-1
				var hdr http.Header
				var root, cl *open
				t0 := time.Now()
				if traced {
					root = tr.start("op", int64(i), 0)
					cl = tr.start("http.client", int64(i), root.id)
					hdr = http.Header{hdrReq: {strconv.Itoa(i)}, hdrSpan: {strconv.FormatUint(cl.id, 10)}}
				}
				body, err := env.post(ctx, r, hdr)
				if traced {
					cl.end()
				}
				var rs []float64
				if err == nil {
					rs, err = checkAnswer(r, body)
				}
				lat := ms(time.Since(t0))
				if traced {
					root.end()
				}
				if err != nil {
					failMu.Lock()
					out.fail("op %d (%s): %v", i, r.path, err)
					failMu.Unlock()
					continue
				}
				lg.record(i, cycle, lat)
				if traced {
					lg.on.add(lat)
				} else {
					lg.off.add(lat)
				}
				if i < ratioOps {
					ratios[i] = rs
				}
				if i < replayOps {
					bodies[i] = body
				}
			}
		}(c)
	}
	wg.Wait()
	marks = append(marks, markNow()) // the end of the last, partial pass
	elapsed := time.Since(p.start)
	after := env.srv.Stats()

	out.attempted = next.Load()
	var ok int
	var on, off stat
	perPass := make([]int, len(marks)-1) // successful ops of each cycle
	bestAt := make([]float64, cycle)     // best latency at each position; 0 = none
	for _, lg := range logs {
		ok += lg.ok
		on.n, on.sum = on.n+lg.on.n, on.sum+lg.on.sum
		off.n, off.sum = off.n+lg.off.n, off.sum+lg.off.sum
		for k, n := range lg.perPass {
			perPass[k] += n
		}
		for j, b := range lg.best {
			if b > 0 && (bestAt[j] == 0 || b < bestAt[j]) {
				bestAt[j] = b
			}
		}
	}
	if err := p.finish(out, ok); err != nil {
		return nil, fmt.Errorf("%v (%v)", err, out.problems)
	}
	if err := out.passCPU(marks, perPass); err != nil {
		return nil, err
	}
	out.requests(bestAt, serveClients)
	var all []float64
	seen := map[int]bool{}
	for i, rs := range ratios {
		if !seen[poolAt(i)] {
			seen[poolAt(i)] = true
			all = append(all, rs...)
		}
	}
	out.values["approx_ratio"] = mean(all)
	serverDeltas(out, before, after)
	fmt.Fprintf(o.log, "%s: sent=%d succeeded=%d failed=%d in %.2fs; server completed=%d shed=%d failed=%d canceled=%d\n",
		o.workload, out.attempted, ok, out.failed, elapsed.Seconds(),
		after.Completed-before.Completed, after.Shed-before.Shed, after.Failed-before.Failed, after.Canceled-before.Canceled)
	if tr == nil {
		return out, nil
	}

	out.overhead(serveClients, on.mean(), off.mean())
	if err := replay(ctx, out, tr, reqAt, bodies); err != nil {
		return nil, err
	}
	spans := tr.snapshot()
	out.values["http.handler_ms"] = meanMS(byName(spans, "http.handler"))
	for _, lt := range selfTimes(spans) {
		if lt.name == "http.client" {
			out.values["http.client_ms"] = ms(lt.self) / float64(lt.count)
		}
	}
	return out, finishTrace(o, out, spans)
}

// serverDeltas records the daemon's failure and cache counters over the
// timed phase. Shed, failed and canceled requests are failed ops too, and
// were counted as such by the clients.
func serverDeltas(out *outcome, before, after serve.Stats) {
	out.values["serve.shed"] = float64(after.Shed - before.Shed)
	out.values["serve.failed"] = float64(after.Failed - before.Failed)
	out.values["serve.canceled"] = float64(after.Canceled - before.Canceled)
	hits := after.CacheHits - before.CacheHits
	misses := after.CacheMisses - before.CacheMisses
	collapsed := after.CacheCollapsed - before.CacheCollapsed
	lookups := hits + misses + collapsed
	out.values["cache.lookups"] = float64(lookups)
	out.values["cache.misses"] = float64(misses)
	out.values["cache.collapsed"] = float64(collapsed)
	out.values["cache.evictions"] = float64(after.CacheEvictions - before.CacheEvictions)
	if lookups > 0 {
		out.values["cache.hit_ratio"] = float64(hits+collapsed) / float64(lookups)
	}
}

// replayer holds the solver state of a traced run's replay: the
// workspaces serve.Do runs on (whose counters give the deterministic
// effort counts), a one-worker uncached daemon for Submit, and separate
// workspaces for the per-layer calls.
type replayer struct {
	tr       *tracer
	doWS     *serve.Workspaces
	sub      *serve.Server
	searchWS *relax.Workspace // relax.MinFeasibleTWS alone
	pipeWS   *relax.Workspace // the approximation pipelines
	exactWS  *exact.Workspace

	ops         int
	round       []float64 // ms: pipeline minus its LP search, per request
	searchTime  time.Duration
	searchPivot int
	segments    []float64
}

// replay sends the leading ops of the timed sequence through the program
// again, one call per layer, each under a span sharing the op's request
// id. serve.Do and Server.Submit must reproduce the HTTP answer byte for
// byte, or the replay would be measuring a different program; a mismatch
// is a failed op.
func replay(ctx context.Context, out *outcome, tr *tracer, reqAt func(int) *request, bodies [][]byte) error {
	rp := &replayer{
		tr:       tr,
		doWS:     serve.NewWorkspaces(),
		sub:      serve.New(serve.Config{Workers: 1}),
		searchWS: relax.NewWorkspace(),
		pipeWS:   relax.NewWorkspace(),
		exactWS:  exact.NewWorkspace(),
	}
	defer rp.sub.Close()
	for i, body := range bodies {
		if body == nil {
			continue // the op failed (already counted) or was never sent
		}
		if err := rp.one(ctx, int64(i), reqAt(i), body); err != nil {
			out.fail("replay of op %d: %v", i, err)
		}
	}
	if rp.ops == 0 {
		return fmt.Errorf("replay: no op to replay")
	}
	n := float64(rp.ops)
	rs, es := rp.doWS.Relax.Stats(), rp.doWS.Exact.Stats()
	lpc := rs.LP
	lpc.Solves += es.Relax.LP.Solves
	lpc.WarmHits += es.Relax.LP.WarmHits
	lpc.Pivots += es.Relax.LP.Pivots
	lpc.WarmPivots += es.Relax.LP.WarmPivots
	lpc.WarmFallbacks += es.Relax.LP.WarmFallbacks
	out.values["replay.ops"] = n
	out.values["relax.probes_per_op"] = float64(rs.Probes+es.Relax.Probes) / n
	lpCounts(out, lpc.Solves, lpc.WarmHits, lpc.Pivots, lpc.WarmPivots, lpc.WarmFallbacks, n)
	out.values["exact.visited_per_op"] = float64(es.Visited) / n
	out.values["exact.canonical_per_op"] = float64(es.Canonical) / n
	if rp.searchPivot > 0 {
		out.values["lp.us_per_pivot"] = float64(rp.searchTime.Microseconds()) / float64(rp.searchPivot)
	}
	out.values["approx.round_ms"] = mean(rp.round)
	out.values["dag.segments"] = mean(rp.segments)
	spans := tr.snapshot()
	for name, metric := range map[string]string{
		"serve.do":       "serve.do_ms",
		"serve.submit":   "serve.submit_ms",
		"relax.search":   "relax.search_ms",
		"hier.schedule":  "hier.schedule_ms",
		"sched.validate": "sched.validate_ms",
		"exact.solve":    "exact.solve_ms",
		"rt.test":        "rt.test_ms",
		"memcap.model1":  "memcap.model1_ms",
		"memcap.model2":  "memcap.model2_ms",
		"dag.compile":    "dag.compile_ms",
	} {
		out.values[metric] = meanMS(byName(spans, name))
	}
	for name, metric := range map[string]string{
		"cache.key":    "cache.key_us",
		"model.decode": "model.decode_us",
		"serve.encode": "serve.encode_us",
	} {
		out.values[metric] = 1000 * meanMS(byName(spans, name))
	}
	return nil
}

// lpCounts records the simplex effort counters per op.
func lpCounts(out *outcome, solves, warmHits, pivots, warmPivots, fallbacks int, ops float64) {
	out.values["lp.solves_per_op"] = float64(solves) / ops
	out.values["lp.pivots_per_op"] = float64(pivots) / ops
	out.values["lp.warm_pivots_per_op"] = float64(warmPivots) / ops
	out.values["lp.warm_fallbacks"] = float64(fallbacks)
	if solves > 0 {
		out.values["lp.warm_hit_ratio"] = float64(warmHits) / float64(solves)
	}
}

// one replays a single op.
func (rp *replayer) one(ctx context.Context, id int64, r *request, httpBody []byte) error {
	root := rp.tr.start("replay", id, 0)
	defer root.end()
	var reqs []*serve.Request
	if r.path == "/v1/batch" {
		if err := json.Unmarshal(r.body, &reqs); err != nil {
			return err
		}
	} else {
		var req serve.Request
		if err := json.Unmarshal(r.body, &req); err != nil {
			return err
		}
		reqs = []*serve.Request{&req}
	}
	resps := make([]*serve.Response, len(reqs))
	for k, req := range reqs {
		sp := rp.tr.start("cache.key", id, root.id)
		serve.KeyRequest(req)
		sp.end()
		sp = rp.tr.start("serve.do", id, root.id)
		resp, err := serve.Do(ctx, req, rp.doWS)
		sp.end()
		if err != nil {
			return fmt.Errorf("serve.Do: %w", err)
		}
		resps[k] = resp
		rp.ops++
		if err := rp.layers(ctx, id, root.id, req, resp); err != nil {
			return fmt.Errorf("%s layers: %w", req.Algo, err)
		}
	}
	sp := rp.tr.start("serve.encode", id, root.id)
	got, err := encodeAnswer(r, resps)
	sp.end()
	if err != nil {
		return err
	}
	if !bytes.Equal(got, httpBody) {
		return fmt.Errorf("serve.Do answer differs from the HTTP answer:\n  do:   %s  http: %s", got, httpBody)
	}

	sp = rp.tr.start("serve.submit", id, root.id)
	results, err := rp.sub.Submit(ctx, reqs)
	sp.end()
	if err != nil {
		return fmt.Errorf("Submit: %w", err)
	}
	for k, res := range results {
		if res.Err != nil {
			return fmt.Errorf("Submit item %d: %w", k, res.Err)
		}
		resps[k] = res.Resp
	}
	if got, err = encodeAnswer(r, resps); err != nil {
		return err
	}
	if !bytes.Equal(got, httpBody) {
		return fmt.Errorf("Submit answer differs from the HTTP answer")
	}
	return nil
}

// encodeAnswer serializes responses the way the HTTP handler does.
func encodeAnswer(r *request, resps []*serve.Response) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	var v any = resps
	if r.path != "/v1/batch" {
		v = resps[0]
	}
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// layers calls the public function of each layer the request's algorithm
// passes through, timing each under its own span, and cross-checks the
// answer serve.Do gave.
func (rp *replayer) layers(ctx context.Context, id int64, parent uint64, req *serve.Request, resp *serve.Response) error {
	tr := rp.tr
	if desc, ok := scenario.Lookup(req.Algo); ok {
		wl, err := desc.Decode(req.Instance)
		if err != nil {
			return err
		}
		sp := tr.start("dag.compile", id, parent)
		c, err := wl.Compile()
		sp.end()
		if err != nil {
			return err
		}
		rp.segments = append(rp.segments, float64(c.Segments))
		return nil
	}
	sp := tr.start("model.decode", id, parent)
	in, err := model.Decode(bytes.NewReader(req.Instance))
	sp.end()
	if err != nil {
		return err
	}
	switch req.Algo {
	case serve.AlgoLP:
		_, err := rp.search(id, parent, in)
		return err
	case serve.Algo2Approx, serve.AlgoBest:
		search, err := rp.search(id, parent, in.WithSingletons())
		if err != nil {
			return err
		}
		solve := approx.TwoApproxWS
		if req.Algo == serve.AlgoBest {
			solve = approx.BestWS
		}
		sp := tr.start("approx."+req.Algo, id, parent)
		res, err := solve(ctx, in, rp.pipeWS)
		d := sp.end()
		if err != nil {
			return err
		}
		rp.round = append(rp.round, ms(d-search))
		return rp.schedule(id, parent, res.Instance, res.Assignment, res.Makespan)
	case serve.AlgoExact:
		sp := tr.start("exact.solve", id, parent)
		a, opt, err := exact.SolveWS(ctx, in, exact.Options{MaxNodes: req.MaxNodes}, rp.exactWS)
		sp.end()
		if err != nil {
			return err
		}
		if opt != resp.Makespan {
			return fmt.Errorf("an independent exact solve found optimum %d, the answer claims %d", opt, resp.Makespan)
		}
		return rp.schedule(id, parent, in, a, opt)
	case serve.AlgoRT:
		sp := tr.start("rt.test", id, parent)
		_, err := rt.TestCtx(ctx, in, req.Frame, rt.Options{ExactNodes: req.MaxNodes})
		sp.end()
		return err
	case serve.AlgoMemory1:
		sp := tr.start("memcap.model1", id, parent)
		_, err := memcap.SolveModel1Ctx(ctx, &memcap.Model1{In: in, Budget: req.Memory.Budget, Size: req.Memory.Size})
		sp.end()
		return err
	case serve.AlgoMemory2:
		sp := tr.start("memcap.model2", id, parent)
		_, err := memcap.SolveModel2Ctx(ctx, &memcap.Model2{In: in, JobSize: req.Memory.JobSize, Mu: req.Memory.Mu})
		sp.end()
		return err
	}
	return fmt.Errorf("no layer replay for algo %q", req.Algo)
}

// search times the LP binary search alone and tallies its pivots.
func (rp *replayer) search(id int64, parent uint64, in *model.Instance) (time.Duration, error) {
	before := rp.searchWS.Stats().LP.Pivots
	sp := rp.tr.start("relax.search", id, parent)
	_, _, err := relax.MinFeasibleTWS(context.Background(), in, rp.searchWS)
	d := sp.end()
	rp.searchTime += d
	rp.searchPivot += rp.searchWS.Stats().LP.Pivots - before
	return d, err
}

// schedule times the hierarchical scheduler and the schedule validator on
// an assignment.
func (rp *replayer) schedule(id int64, parent uint64, in *model.Instance, a model.Assignment, mk int64) error {
	sp := rp.tr.start("hier.schedule", id, parent)
	s, err := hier.Schedule(in, a, mk)
	sp.end()
	if err != nil {
		return err
	}
	demand, allowed := a.Requirement(in)
	sp = rp.tr.start("sched.validate", id, parent)
	err = s.Validate(sched.Requirement{Demand: demand, Allowed: allowed})
	sp.end()
	return err
}
