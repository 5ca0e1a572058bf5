package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"time"

	"hzccl"
	"hzccl/internal/datasets"
	"hzccl/serve"
)

// serveMixed drives an hzccl-serve daemon on a 2-rank loopback mesh,
// closed-loop from two client connections (collective callers block on
// their result). Jobs are small Hurricane ring jobs alternating
// allreduce and reduce_scatter across the three backends, so per-message
// TCP cost and the daemon's own overhead dominate and the codec does
// little.
type serveMixed struct {
	job     serveJob
	base    int // first dataset field; the seed picks it
	clients int

	mu   sync.Mutex
	refs map[serve.JobSpec]*jobRef
}

// serveJob is the shape of a workload's daemon jobs.
type serveJob struct {
	dataset string
	bytes   int
	rel     float64
}

// jobRef is a standalone in-process run of one job spec: the digests a
// daemon job must reproduce bit-for-bit, and its error against the
// float64 reference.
type jobRef struct {
	digests   map[string]string
	errOverEb float64
}

// serveFields is the number of consecutive dataset fields the jobs
// cycle through: Hurricane alternates turbulent (even) and smooth (odd)
// fields, so an even count keeps every run's mix the same.
const serveFields = 4

var serveCombos = []opSpec{
	{backend: hzccl.BackendMPI}, {backend: hzccl.BackendMPI, scatter: true},
	{backend: hzccl.BackendCColl}, {backend: hzccl.BackendCColl, scatter: true},
	{backend: hzccl.BackendHZCCL}, {backend: hzccl.BackendHZCCL, scatter: true},
}

func newServeMixed(seed int64, bytesPerRank, clients int) (*serveMixed, error) {
	w := &serveMixed{
		job:     serveJob{dataset: "Hurricane", bytes: bytesPerRank, rel: 1e-4},
		base:    rand.New(rand.NewSource(seed)).Intn(1000),
		clients: clients,
		refs:    map[serve.JobSpec]*jobRef{},
	}
	// Reference digests for the whole timed sequence, computed before
	// any timing starts.
	for i := 0; i < serveFields*2*len(serveCombos); i++ {
		if _, err := w.ref(w.spec(w.seq(i))); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (w *serveMixed) cycle() int        { return len(serveCombos) }
func (w *serveMixed) lanes() int        { return w.clients }
func (w *serveMixed) bytesPerRank() int { return w.job.bytes }

// seq cycles the six op × backend combos; the field advances every two
// cycles, so traced and untraced cycles of a traced run see every field.
func (w *serveMixed) seq(i int) opSpec {
	s := serveCombos[i%len(serveCombos)]
	s.input = (i / (2 * len(serveCombos))) % serveFields
	return s
}

// spec is the job spec of one operation; only specs reach the daemon.
func (w *serveMixed) spec(op opSpec) serve.JobSpec {
	s := serve.JobSpec{
		Op: "allreduce", Backend: backendName(op.backend), Algorithm: op.algo.String(),
		MessageBytes: w.job.bytes, RelBound: w.job.rel,
		Dataset: w.job.dataset, Offset: w.base + op.input,
	}
	if op.scatter {
		s.Op = "reduce_scatter"
	}
	return s
}

// ref returns the standalone reference of a spec, computing it on first
// use.
func (w *serveMixed) ref(spec serve.JobSpec) (*jobRef, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if r, ok := w.refs[spec]; ok {
		return r, nil
	}
	r, err := standaloneJob(spec, 2)
	if err != nil {
		return nil, fmt.Errorf("reference run of %+v: %w", spec, err)
	}
	w.refs[spec] = r
	return r, nil
}

// standaloneJob runs a job spec on the in-process fabric with the
// daemon's configuration (every rank loads the same field; eb is
// rel × its value range) and checks each rank against the float64
// reference.
func standaloneJob(spec serve.JobSpec, world int) (*jobRef, error) {
	base, err := datasets.Field(spec.Dataset, spec.Offset, spec.MessageBytes/4)
	if err != nil {
		return nil, err
	}
	algo, err := hzccl.ParseAlgorithm(spec.Algorithm)
	if err != nil {
		return nil, err
	}
	backend := map[string]hzccl.Backend{"mpi": hzccl.BackendMPI, "ccoll": hzccl.BackendCColl, "hzccl": hzccl.BackendHZCCL}[spec.Backend]
	inputs := make([][]float32, world)
	for r := range inputs {
		inputs[r] = base
	}
	set := newInputSet(inputs, spec.RelBound)
	opt := hzccl.CollectiveOptions{ErrorBound: set.eb, Algorithm: algo}
	ref := &jobRef{digests: map[string]string{}}
	var mu sync.Mutex
	var worst float64
	_, err = hzccl.RunCluster(hzccl.ClusterConfig{Ranks: world, Latency: modelLatency, BandwidthBytes: modelBandwidth, RecvTimeout: 2 * time.Second},
		func(r *hzccl.Rank) error {
			var out []float32
			var err error
			want := set.ref
			if spec.Op == "reduce_scatter" {
				out, err = r.ReduceScatter(base, backend, opt)
				_, s, e := r.OwnedBlock(len(base))
				want = want[s:e]
			} else {
				out, err = r.Allreduce(base, backend, opt)
			}
			if err != nil {
				return err
			}
			// AlgoAuto resolves identically on every rank; the widest
			// fixed-schedule tolerance covers whichever it picks.
			tolAlgo := algo
			if algo == hzccl.AlgoAuto {
				tolAlgo = hzccl.AlgoRabenseifner
			}
			e, err := checkRank(r.ID(), out, want, set.eb, tolerance(backend, tolAlgo, world, set.eb, set.maxIn))
			mu.Lock()
			ref.digests[strconv.Itoa(r.ID())] = digestHex(out)
			worst = math.Max(worst, e)
			mu.Unlock()
			return err
		})
	ref.errOverEb = worst
	return ref, err
}

// daemon is a running 2-rank service with its client connections.
type daemon struct {
	w       *serveMixed
	ds      []*serve.Daemon
	clients []*serve.Client
	// started is the slowest rank's serve.Start time, in seconds.
	started float64
}

func (w *serveMixed) start() (system, error) { return startDaemon(w) }

func startDaemon(w *serveMixed) (*daemon, error) {
	const n = 2
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
	d := &daemon{w: w, ds: make([]*serve.Daemon, n)}
	errs := make([]error, n)
	took := make([]float64, n)
	var wg sync.WaitGroup
	for i := range lns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := time.Now()
			d.ds[i], errs[i] = serve.Start(serve.Options{Rank: i, Peers: peers, Listener: lns[i], DialTimeout: 15 * time.Second})
			took[i] = time.Since(t0).Seconds()
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		d.close()
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	for _, t := range took {
		d.started = math.Max(d.started, t)
	}
	for i := 0; i < w.clients; i++ {
		c, err := serve.Dial(d.ds[0].ClientAddr())
		if err != nil {
			d.close()
			return nil, err
		}
		d.clients = append(d.clients, c)
	}
	return d, nil
}

// do submits one job on the lane's client connection and times the
// Submit round trip; the job's digests must equal the standalone run's.
func (d *daemon) do(lane int, op opSpec, traced bool) opResult {
	spec := d.w.spec(op)
	res := opResult{key: op.key(), traced: traced, lanes: 2}
	ref, err := d.w.ref(spec)
	if err != nil {
		res.err = err
		return res
	}
	t0 := time.Now()
	jr, err := d.clients[lane].Submit(spec)
	res.wall = time.Since(t0).Seconds()
	if err != nil {
		res.err = fmt.Errorf("submit %s %s: %w", spec.Op, spec.Backend, err)
		return res
	}
	res.virtual, res.inner = jr.VirtualSeconds, jr.WallSeconds
	res.errOverEb = ref.errOverEb
	c0 := time.Now()
	res.err = sameDigests(jr.Digests, ref.digests)
	if res.err != nil {
		res.err = fmt.Errorf("job %d (%s %s, field %d): %w", jr.ID, spec.Op, spec.Backend, spec.Offset, res.err)
	}
	res.check = time.Since(c0).Seconds()
	return res
}

// sameDigests reports whether a daemon job's per-rank digests equal the
// standalone reference's.
func sameDigests(got, want map[string]string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rank digests, want %d", len(got), len(want))
	}
	for rank, w := range want {
		if got[rank] != w {
			return fmt.Errorf("rank %s digest %q, standalone run gives %q", rank, got[rank], w)
		}
	}
	return nil
}

func (d *daemon) close() {
	for _, c := range d.clients {
		c.Close()
	}
	for _, s := range d.ds {
		if s != nil {
			s.Close()
		}
	}
}

func (w *serveMixed) layers(sys system, o *outcome) error {
	m := o.metrics
	d := sys.(*daemon)
	serveMetrics(m, d, o.ops, o.counters.Counters)
	byKey, err := scheduleReplay(func(op opSpec) opResult {
		op.input = 0
		return d.do(0, op, false)
	}, 20)
	if err != nil {
		return err
	}
	comboMedians(m, byKey)
	var sets [][][]float32
	eb := 0.0
	for k := 0; k < serveFields; k++ {
		f, err := datasets.Field(w.job.dataset, w.base+k, w.job.bytes/4)
		if err != nil {
			return err
		}
		sets = append(sets, [][]float32{f, f})
		eb = math.Max(eb, w.job.rel*valueRange([][]float32{f}))
	}
	if err := codecReplay(m, sets, eb); err != nil {
		return err
	}
	// The daemon's mesh is private to it; the fabric replay forms a
	// fresh mesh of the same size over the same loopback TCP.
	ms, err := newMesh(2)
	if err != nil {
		return err
	}
	defer ms.close()
	m.set("cluster.mesh_form_ms", "ms", meshFormMs(ms))
	return fabricReplay(m, ms, o)
}

// serveMetrics sets the daemon-layer metrics from a set of jobs.
func serveMetrics(m metrics, d *daemon, ops []opResult, c map[string]int64) {
	var over []float64
	for _, r := range ops {
		if r.err == nil {
			over = append(over, (r.wall-r.inner)*1e3)
		}
	}
	n := float64(len(ops))
	m.set("serve.overhead_ms", "ms", median(over))
	m.set("serve.start_ms", "ms", d.started*1e3)
	m.set("serve.failed_per_job", "count", float64(c["serve.jobs.failed"])/n)
	m.set("serve.rejected_per_job", "count", float64(c["serve.jobs.rejected_queue_full"])/n)
	var ping []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if _, err := d.clients[0].Ping(); err != nil {
			break
		}
		ping = append(ping, time.Since(t0).Seconds()*1e6)
	}
	m.set("serve.ping_us", "us", median(ping))
}
