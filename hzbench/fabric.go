package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"time"

	"hzccl"
	"hzccl/internal/datasets"
)

// Network model shared by every workload: the values hzccl-collective
// -transport and hzccl-serve use, so virtual times are comparable.
const (
	modelLatency   = 2 * time.Microsecond
	modelBandwidth = 0.4e9
	recvTimeout    = 30 * time.Second
)

// inputSet is one operation's per-rank inputs with their reference.
type inputSet struct {
	inputs [][]float32
	ref    []float64 // float64 element-wise sum
	eb     float64   // absolute error bound: rel × value range
	maxIn  float64
}

func newInputSet(inputs [][]float32, rel float64) *inputSet {
	return &inputSet{
		inputs: inputs,
		ref:    referenceSum(inputs),
		eb:     rel * valueRange(inputs),
		maxIn:  maxAbs(inputs),
	}
}

// seededFields draws one field per rank of a synthetic dataset: the
// seed picks distinct field indices in [0, fields) and an element offset
// of at most maxOffset for each rank.
func seededFields(rng *rand.Rand, dataset string, ranks, n, fields, maxOffset int) ([][]float32, error) {
	perm := rng.Perm(fields)
	out := make([][]float32, ranks)
	for r := range out {
		off := rng.Intn(maxOffset + 1)
		f, err := datasets.Field(dataset, perm[r%fields], n+off)
		if err != nil {
			return nil, err
		}
		out[r] = f[off:]
	}
	return out, nil
}

// fabric runs one body on every rank of a message fabric.
type fabric interface {
	// run executes body on every rank. It returns the modeled time (the
	// slowest rank's virtual clock), the algorithm each call resolved
	// to, and, when traced, the wall-clock compute spans by category.
	run(cfg hzccl.ClusterConfig, traced bool, body func(*hzccl.Rank) error) (runInfo, error)
	ranks() int
	// computeLanes is how many ranks can compute at the same time.
	computeLanes() int
}

type runInfo struct {
	virtual float64
	choices []hzccl.AlgoChoice
	busy    map[string]float64
}

// inproc is the default in-process channel fabric: RunCluster hosts
// every rank as a goroutine.
type inproc struct {
	n    int
	topo *hzccl.Topology
}

func (f inproc) ranks() int { return f.n }

// computeLanes is 1: the fabric serializes measured compute under its
// lock.
func (f inproc) computeLanes() int { return 1 }

func (f inproc) run(cfg hzccl.ClusterConfig, traced bool, body func(*hzccl.Rank) error) (runInfo, error) {
	cfg.Ranks, cfg.Topology = f.n, f.topo
	var tr *hzccl.Trace
	if traced {
		tr = new(hzccl.Trace)
		cfg.Trace = tr
	}
	res, err := hzccl.RunCluster(cfg, body)
	if err != nil {
		return runInfo{}, err
	}
	info := runInfo{virtual: res.Seconds, choices: res.AlgoChoices}
	if traced {
		info.busy = busySpans(tr)
	}
	return info, nil
}

// mesh is a loopback TCP mesh hosted in this process: one TCPTransport
// per rank goroutine, each formed through NewTCPTransport. Operations
// run on fresh job sessions of the one mesh, so it is formed once.
type mesh struct {
	trs []*hzccl.TCPTransport
	job uint32
	// formed is the slowest rank's NewTCPTransport time, in seconds.
	formed float64
}

func newMesh(n int) (*mesh, error) {
	lns := make([]net.Listener, n)
	peers := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("listen: %w", err)
		}
		lns[i], peers[i] = ln, ln.Addr().String()
	}
	m := &mesh{trs: make([]*hzccl.TCPTransport, n)}
	errs := make([]error, n)
	took := make([]float64, n)
	var wg sync.WaitGroup
	for i := range lns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := time.Now()
			m.trs[i], errs[i] = hzccl.NewTCPTransport(hzccl.TCPOptions{
				Rank: i, Peers: peers, Listener: lns[i], DialTimeout: 15 * time.Second,
			})
			took[i] = time.Since(t0).Seconds()
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		m.close()
		return nil, fmt.Errorf("form mesh: %w", err)
	}
	for _, t := range took {
		m.formed = math.Max(m.formed, t)
	}
	return m, nil
}

func (m *mesh) ranks() int        { return len(m.trs) }
func (m *mesh) computeLanes() int { return len(m.trs) }

func (m *mesh) close() {
	for _, t := range m.trs {
		if t != nil {
			t.Close()
		}
	}
}

// run opens one job session per rank (all before any rank starts, as the
// daemon's ready handshake does) and runs body as one RunCluster per
// rank goroutine on it.
func (m *mesh) run(cfg hzccl.ClusterConfig, traced bool, body func(*hzccl.Rank) error) (runInfo, error) {
	m.job++
	n := len(m.trs)
	sess := make([]hzccl.Transport, n)
	for r, t := range m.trs {
		s, err := t.Session(m.job)
		if err != nil {
			for _, o := range sess[:r] {
				o.Close()
			}
			return runInfo{}, fmt.Errorf("open session %d: %w", m.job, err)
		}
		sess[r] = s
	}
	traces := make([]*hzccl.Trace, n)
	results := make([]*hzccl.RunResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := range sess {
		c := cfg
		c.Ranks, c.Transport = n, sess[r]
		if traced {
			traces[r] = new(hzccl.Trace)
			c.Trace = traces[r]
		}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			results[r], errs[r] = hzccl.RunCluster(c, body)
		}(r)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return runInfo{}, err
	}
	var info runInfo
	for _, res := range results {
		info.virtual = math.Max(info.virtual, res.Seconds)
		info.choices = append(info.choices, res.AlgoChoices...)
	}
	if traced {
		info.busy = busySpans(traces...)
	}
	return info, nil
}

// baseConfig is the cluster configuration of every timed collective.
func baseConfig() hzccl.ClusterConfig {
	return hzccl.ClusterConfig{Latency: modelLatency, BandwidthBytes: modelBandwidth, RecvTimeout: recvTimeout}
}

// allreduceOp runs one allreduce on a fabric: every rank waits at the
// program's barrier, then the operation is timed from the earliest
// barrier exit until the slowest rank returns. The outputs are checked
// after every rank has finished, so the check cannot steal a core from
// a rank still working.
func allreduceOp(f fabric, set *inputSet, s opSpec, traced bool) opResult {
	n := f.ranks()
	starts := make([]time.Time, n)
	ends := make([]time.Time, n)
	outs := make([][]float32, n)
	opt := hzccl.CollectiveOptions{ErrorBound: set.eb, Algorithm: s.algo}
	info, err := f.run(baseConfig(), traced, func(r *hzccl.Rank) error {
		if err := r.Barrier(); err != nil {
			return err
		}
		id := r.ID()
		starts[id] = time.Now()
		out, err := r.Allreduce(set.inputs[id], s.backend, opt)
		ends[id] = time.Now()
		outs[id] = out
		return err
	})
	res := opResult{key: s.key(), traced: traced, lanes: float64(f.computeLanes()), err: err}
	if err != nil {
		return res
	}
	first, last := starts[0], ends[0]
	for r := range starts {
		if starts[r].Before(first) {
			first = starts[r]
		}
		if ends[r].After(last) {
			last = ends[r]
		}
	}
	res.wall = last.Sub(first).Seconds()
	res.virtual = info.virtual
	res.busy = info.busy

	c0 := time.Now()
	algo := s.algo
	if algo == hzccl.AlgoAuto && len(info.choices) > 0 {
		algo = info.choices[0].Algorithm
	}
	tol := tolerance(s.backend, algo, n, set.eb, set.maxIn)
	res.errOverEb, res.err = checkAllreduce(outs, set.ref, set.eb, tol)
	if res.err != nil {
		res.err = fmt.Errorf("%s allreduce: %w", s.key(), res.err)
	}
	res.check = time.Since(c0).Seconds()
	return res
}
