package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"hsp/internal/dag"
	"hsp/internal/memcap"
	"hsp/internal/model"
	"hsp/internal/serve"
	"hsp/internal/workload"
)

// Every input derives from the workload seed through seedFor, so the same
// seed gives the same requests and instances on every run, independent of
// how many a run ends up using.

// Generator streams: each kind of input draws from its own stream so that,
// for example, warm-up requests are disjoint from timed ones.
const (
	streamDistinct uint64 = iota + 1
	streamWarm
	streamMix
	streamHot
	streamZipf
	streamSuite
	streamShape
)

// gamma is splitmix64's increment.
const gamma = 0x9e3779b97f4a7c15

// seedFor mixes (seed, stream, index) into an independent generator seed.
func seedFor(seed int64, stream uint64, i int) int64 {
	return int64(mix(uint64(seed) ^ stream<<56 ^ uint64(i)*gamma))
}

// mix is splitmix64's output finalizer.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// splitmix is a small rand.Source64; seeding math/rand's default source
// costs more than drawing a whole request.
type splitmix struct{ s uint64 }

func (x *splitmix) Uint64() uint64 {
	x.s += gamma
	return mix(x.s)
}
func (x *splitmix) Int63() int64    { return int64(x.Uint64() >> 1) }
func (x *splitmix) Seed(seed int64) { x.s = uint64(seed) }

// newRand is the generator for item i of a stream.
func newRand(seed int64, stream uint64, i int) *rand.Rand {
	return rand.New(&splitmix{s: uint64(seedFor(seed, stream, i))})
}

// kindBatch is the /v1/batch request of small LP probes.
const kindBatch = "batch"

// expect is what the checker needs to judge one answer.
type expect struct {
	algo   string
	n      int             // jobs of the core instance
	lb, ub int64           // trivial lower / upper bounds on T* (lp)
	frame  int64           // rt: a frame the 2-approximation provably fits
	sigma  float64         // memory2: the Theorem VI.3 factor for the depth
	exact  *model.Instance // exact: to verify the assignment realizes the makespan
}

// request is one pre-encoded hspd call and the checks for its answer.
type request struct {
	path  string // /v1/solve or /v1/batch
	body  []byte
	items []expect // one per solver request; a batch has several
}

// distinctKinds is serve-distinct's mix; every block of len(distinctKinds)
// consecutive requests holds each kind once, in a seeded order, so the mix
// is the same on every seed.
var distinctKinds = []string{
	serve.Algo2Approx, serve.AlgoBest, serve.AlgoLP, serve.AlgoExact, serve.AlgoRT,
	serve.AlgoDAG, serve.AlgoMemory1, serve.AlgoMemory2, kindBatch,
}

// distinctBlock builds block b of a serve-distinct stream: one request
// of each kind, each on a fresh seeded instance, so no two requests share
// a cache key. The shapes (topology, machine and job counts) come from a
// stream that ignores the seed, so every seed's pool holds the same sizes
// and the seed draws what the instances hold: between seeds the pool's
// cost moves with the instances' contents, not with how many large ones a
// seed happened to draw.
func distinctBlock(seed int64, stream uint64, b int) ([]*request, error) {
	k := len(distinctKinds)
	perm := newRand(seed, streamMix^stream<<8, b).Perm(k)
	block := make([]*request, k)
	for j := range block {
		shape := newRand(0, streamShape^stream<<8, b*k+perm[j])
		rng := newRand(seed, stream, b*k+j)
		r, err := buildRequest(shape, rng, distinctKinds[perm[j]])
		if err != nil {
			return nil, err
		}
		block[j] = r
	}
	return block, nil
}

// genEach fills out[i] = gen(i) for i < n on one goroutine: set-up time
// then rests on one core, which the shared machine disturbs less than
// two.
func genEach[T any](n int, gen func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	for i := range out {
		v, err := gen(i)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// hotKinds is serve-hot's mix of small, cheap requests.
var hotKinds = []string{serve.AlgoLP, serve.Algo2Approx, serve.AlgoBest}

// hotRequest builds entry i of serve-hot's request pool: its shape from a
// stream that ignores the seed, as distinctBlock's, its contents from the
// seed.
func hotRequest(seed int64, i int) (*request, error) {
	shape := newRand(0, streamShape^streamHot<<8, i)
	rng := newRand(seed, streamHot, i)
	in, err := generate(rng, workload.Config{
		Topology: workload.SemiPartitioned, Machines: 3 + shape.Intn(2), Jobs: 6 + shape.Intn(5),
		MinWork: 2, MaxWork: 20, SpeedSpread: 0.4, OverheadPerLevel: 0.25,
	})
	if err != nil {
		return nil, err
	}
	return single(&serve.Request{Algo: hotKinds[i%len(hotKinds)]}, in, expect{})
}

// buildRequest draws one request of the given kind: its shape from
// shape, its contents from rng. Sizes follow the hspd loadtest's
// topologies at m 4–8 and n 10–40.
func buildRequest(shape, rng *rand.Rand, kind string) (*request, error) {
	switch kind {
	case serve.Algo2Approx, serve.AlgoBest, serve.AlgoLP:
		in, err := midInstance(shape, rng)
		if err != nil {
			return nil, err
		}
		return single(&serve.Request{Algo: kind}, in, expect{})
	case serve.AlgoRT:
		in, err := midInstance(shape, rng)
		if err != nil {
			return nil, err
		}
		// The 2-approximation's makespan is at most 2·T* ≤ 2·OPT, and any
		// singleton assignment bounds OPT, so this frame always fits it.
		frame := 2 * greedyMakespan(in)
		return single(&serve.Request{Algo: kind, Frame: frame}, in, expect{frame: frame})
	case serve.AlgoExact:
		in, err := generate(rng, workload.Config{
			Topology: workload.SemiPartitioned, Machines: 4, Jobs: 12 + shape.Intn(2),
			MinWork: 5, MaxWork: 40, SpeedSpread: 0.4,
		})
		if err != nil {
			return nil, err
		}
		return single(&serve.Request{Algo: kind}, in, expect{exact: in})
	case serve.AlgoDAG:
		t, err := workload.GenerateDAG(workload.DAGConfig{
			Machines: 4 + shape.Intn(5), Nodes: 60 + shape.Intn(31), Layers: 10, EdgeProb: 0.4, Seed: rng.Int63(),
			MinWork: 2, MaxWork: 12, MinMem: 1, MaxMem: 6,
		})
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := dag.Encode(&buf, t); err != nil {
			return nil, err
		}
		return encode("/v1/solve", &serve.Request{Algo: kind, Instance: buf.Bytes()}, []expect{{algo: kind}})
	case serve.AlgoMemory1:
		in, err := generate(rng, workload.Config{
			Topology: workload.SemiPartitioned, Machines: 4 + shape.Intn(2), Jobs: 10 + shape.Intn(6),
			MinWork: 5, MaxWork: 50, SpeedSpread: 0.4, OverheadPerLevel: 0.3,
		})
		if err != nil {
			return nil, err
		}
		m1, err := workload.AttachModel1(in, workload.MemoryConfig{MinSize: 1, MaxSize: 10, BudgetSlack: 2}, rng.Int63())
		if err != nil {
			return nil, err
		}
		req := &serve.Request{Algo: kind, Memory: &serve.MemorySpec{Budget: m1.Budget, Size: m1.Size}}
		return single(req, in, expect{})
	case serve.AlgoMemory2:
		br := []int{2, 2}
		if shape.Intn(2) == 1 {
			br = []int{2, 2, 2}
		}
		m := 1
		for _, b := range br {
			m *= b
		}
		in, err := generate(rng, workload.Config{
			Topology: workload.SMPCMP, Branching: br, Jobs: m + shape.Intn(m+1),
			MinWork: 5, MaxWork: 50, SpeedSpread: 0.4, OverheadPerLevel: 0.3,
		})
		if err != nil {
			return nil, err
		}
		m2, err := workload.AttachModel2(in, workload.MemoryConfig{Mu: 2.5}, rng.Int63())
		if err != nil {
			return nil, err
		}
		req := &serve.Request{Algo: kind, Memory: &serve.MemorySpec{JobSize: m2.JobSize, Mu: m2.Mu}}
		return single(req, in, expect{sigma: memcap.Sigma(in.Family.Levels())})
	case kindBatch:
		var reqs []*serve.Request
		var items []expect
		for k := 0; k < 3; k++ {
			in, err := generate(rng, workload.Config{
				Topology: workload.SemiPartitioned, Machines: 4 + shape.Intn(3), Jobs: 12 + shape.Intn(9),
				MinWork: 2, MaxWork: 20, SpeedSpread: 0.4,
			})
			if err != nil {
				return nil, err
			}
			raw, err := encodeInstance(in)
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, &serve.Request{Algo: serve.AlgoLP, Instance: raw})
			items = append(items, coreExpect(serve.AlgoLP, in, expect{}))
		}
		return encode("/v1/batch", reqs, items)
	}
	return nil, fmt.Errorf("unknown request kind %q", kind)
}

// midInstance draws a core instance on one of the loadtest's topologies:
// its shape from shape, its contents from rng.
func midInstance(shape, rng *rand.Rand) (*model.Instance, error) {
	cfg := workload.Config{
		Jobs: 10 + shape.Intn(31), MinWork: 5, MaxWork: 50, SpeedSpread: 0.4, OverheadPerLevel: 0.25,
	}
	switch shape.Intn(3) {
	case 0:
		cfg.Topology, cfg.Machines = workload.SemiPartitioned, 4+shape.Intn(5)
	case 1:
		cfg.Topology, cfg.Clusters, cfg.ClusterSize = workload.Clustered, 2, 2+shape.Intn(3)
	default:
		cfg.Topology, cfg.Branching = workload.SMPCMP, []int{2, 2}
		if shape.Intn(2) == 1 {
			cfg.Branching = []int{2, 2, 2}
		}
	}
	return generate(rng, cfg)
}

// generate draws an instance with a seed taken from rng.
func generate(rng *rand.Rand, cfg workload.Config) (*model.Instance, error) {
	cfg.Seed = rng.Int63()
	return workload.Generate(cfg)
}

// greedyMakespan assigns each job to the singleton that least raises its
// machine's load; the resulting makespan bounds OPT from above.
func greedyMakespan(in *model.Instance) int64 {
	f := in.Family
	load := make([]int64, in.M())
	for j := 0; j < in.N(); j++ {
		best, bestLoad := -1, int64(0)
		for i := range load {
			s := f.Singleton(i)
			if s < 0 || !in.Admissible(j, s) {
				continue
			}
			if l := load[i] + in.Proc[j][s]; best < 0 || l < bestLoad {
				best, bestLoad = i, l
			}
		}
		if best < 0 {
			return in.TrivialUpperBound()
		}
		load[best] = bestLoad
	}
	var mk int64
	for _, l := range load {
		mk = max(mk, l)
	}
	return mk
}

// coreExpect fills the instance-derived fields of an expectation.
func coreExpect(algo string, in *model.Instance, e expect) expect {
	e.algo = algo
	e.n = in.N()
	e.lb = in.LowerBoundSimple()
	e.ub = in.TrivialUpperBound()
	return e
}

// single encodes a /v1/solve request on a core instance.
func single(req *serve.Request, in *model.Instance, e expect) (*request, error) {
	raw, err := encodeInstance(in)
	if err != nil {
		return nil, err
	}
	req.Instance = raw
	return encode("/v1/solve", req, []expect{coreExpect(req.Algo, in, e)})
}

func encodeInstance(in *model.Instance) (json.RawMessage, error) {
	var buf bytes.Buffer
	if err := model.Encode(&buf, in); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func encode(path string, v any, items []expect) (*request, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return &request{path: path, body: body, items: items}, nil
}
