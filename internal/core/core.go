// Package core implements the collective communication algorithms at the
// heart of hZCCL (paper §III-C). Each schedule — ring, recursive doubling,
// Rabenseifner and two-level hierarchical — is written once, against a
// reducer: the backend's reduce operator. The paper frames hZCCL exactly
// this way: its ring keeps C-Coll's schedule and changes only the reduce
// step. Three backends plug in:
//
//   - Plain: no compression, the original MPI baseline. Raw float32 on
//     the wire, summed in float32 (CPT).
//   - CColl: the C-Coll baseline, the decompress-operate-compress (DOC)
//     workflow. The same raw-domain reducer as Plain with the fZ-light
//     codec on the wire: every outgoing range pays CPR, every incoming one
//     DPR before the CPT sum.
//   - HZ: the hZCCL co-design. Each rank compresses its blocks once, every
//     later round reduces *compressed* blocks homomorphically (HPR), and a
//     raw value is decompressed only when asked for — so the ring
//     allreduce moves the reduced blocks through the allgather still
//     compressed, skipping the DPR + CPR between its two stages.
//
// The reducer (reducer.go) owns the per-block state, the wire form of a
// block range and how a received range is accumulated and charged, the
// anchor step doubling exchanges use, and the canonical per-block bytes
// allgathers forward verbatim. Each backend keeps allreduce results
// bitwise identical across ranks by one rule: C-Coll anchors both
// partners of a doubling exchange to dec(sent) before adding dec(got), and
// every rank decodes each block from its one canonical compressed form;
// hZ merges in the compressed domain, so replicas hold identical
// containers.
//
// Everything runs on the cluster substrate, moves real data and charges
// virtual time per category, so collective times, speedups and runtime
// breakdowns (Figures 2, 7–12; Table VII) come from the same code paths.
package core

import (
	"fmt"

	"hzccl/internal/cluster"
	"hzccl/internal/fzlight"
	"hzccl/internal/hzdyn"
)

// Mode selects the compression threading mode of a collective run.
type Mode int

// Modes, matching the paper's "single-thread" and "multi-thread" variants.
const (
	SingleThread Mode = iota
	MultiThread
)

func (m Mode) String() string {
	if m == MultiThread {
		return "multi-thread"
	}
	return "single-thread"
}

// Options configures the compression-accelerated collectives.
type Options struct {
	// ErrorBound is the absolute error bound handed to fZ-light.
	ErrorBound float64
	// BlockSize is the fZ-light small-block length (0 = default 32).
	BlockSize int
	// Mode selects single- or multi-thread compression.
	Mode Mode
	// MTThreads is the compressor chunk count in multi-thread mode
	// (paper: 18 threads, one socket). Default 18.
	MTThreads int
	// MTSpeedup models the parallel speedup of compression-class work in
	// multi-thread mode. Measured single-core wall time is divided by it.
	// Default 12 (18 threads at ~2/3 efficiency, the memory-bound scaling
	// Broadwell STREAM shows). Only used when Mode == MultiThread.
	MTSpeedup float64
	// Segments splits each C-Coll round's block into this many pieces so
	// compression, transfer and decompression pipeline against each other
	// (the overlap §III-A attributes to C-Coll). ≤ 1 disables
	// segmentation. Used by the *Segmented collective variants.
	Segments int
	// Rates, when non-nil, switches compute charging from measured wall
	// time to a calibrated model: each operation costs rawBytes/rate
	// seconds (divided by MTSpeedup in multi-thread mode). The real work
	// still executes — only its virtual-time charge is modeled. Use this
	// for large rank counts, where per-call measurement overhead on tiny
	// blocks would otherwise dominate the single-thread-measured times.
	Rates *Rates
}

// Rates holds calibrated component throughputs in raw bytes per second
// (single-thread). See costmodel.Measure for one way to obtain them.
type Rates struct {
	CPR float64 // compression
	DPR float64 // decompression
	CPT float64 // raw element-wise sum
	HPR float64 // homomorphic reduction
}

func (o Options) withDefaults() Options {
	if o.MTThreads == 0 {
		o.MTThreads = 18
	}
	if o.MTSpeedup == 0 {
		o.MTSpeedup = 12
	}
	return o
}

func (o Options) threads() int {
	if o.Mode == MultiThread {
		return o.MTThreads
	}
	return 1
}

// scale converts measured wall time into charged virtual time for
// compression-class work.
func (o Options) scale() float64 {
	if o.Mode == MultiThread {
		return 1 / o.MTSpeedup
	}
	return 1
}

// work executes f (real work over rawBytes of raw-equivalent data) and
// charges virtual time for it: measured wall time when no Rates are set,
// or rawBytes/rate otherwise. Multi-thread mode divides either charge by
// MTSpeedup.
func (c Collectives) work(r *cluster.Rank, cat cluster.Category, rawBytes int, f func()) {
	o := c.Opt
	inner := f
	h := stageHist(cat)
	f = func() {
		sp := h.Start()
		inner()
		sp.End()
	}
	if o.Rates == nil {
		r.TimeScaled(cat, o.scale(), f)
		return
	}
	var rate float64
	switch cat {
	case cluster.CatCPR:
		rate = o.Rates.CPR
	case cluster.CatDPR:
		rate = o.Rates.DPR
	case cluster.CatCPT:
		rate = o.Rates.CPT
	case cluster.CatHPR:
		rate = o.Rates.HPR
	default:
		rate = o.Rates.CPT
	}
	r.Quiesce(f)
	if rate > 0 {
		r.Elapse(cat, float64(rawBytes)/rate*o.scale())
	}
}

func (o Options) params() fzlight.Params {
	return fzlight.Params{ErrorBound: o.ErrorBound, BlockSize: o.BlockSize, Threads: o.threads()}
}

// Collectives bundles Options; its methods are the collective operations.
// Each method must be called from within a cluster rank body, by every
// rank, with equal-length data.
type Collectives struct {
	Opt Options
}

// New returns a Collectives with defaulted options.
func New(opt Options) Collectives { return Collectives{Opt: opt.withDefaults()} }

// BlockOwned returns the index of the reduced block rank `rank` holds
// after a ring Reduce_scatter over n ranks.
func BlockOwned(rank, n int) int { return (rank + 1) % n }

// BlockBounds returns the [start,end) element range of reduce-scatter
// block k when dataLen elements are partitioned across n ranks.
func BlockBounds(dataLen, n, k int) (int, int) { return fzlight.ChunkBounds(dataLen, n, k) }

// clone returns a fresh copy of data.
func clone(data []float32) []float32 {
	out := make([]float32, len(data))
	copy(out, data)
	return out
}

// addInto accumulates src into dst element-wise.
func addInto(dst, src []float32) {
	for i, v := range src {
		dst[i] += v
	}
}

// Backend selects the reduce operator a collective schedule runs with.
type Backend int

// Backends.
const (
	// Plain is the uncompressed baseline (original MPI collectives).
	Plain Backend = iota
	// CColl is the C-Coll baseline: compression-accelerated collectives
	// with the decompress-operate-compress workflow.
	CColl
	// HZ is the homomorphic co-design: operations run directly on
	// compressed blocks.
	HZ
)

func (b Backend) String() string {
	switch b {
	case Plain:
		return "MPI"
	case CColl:
		return "C-Coll"
	case HZ:
		return "hZCCL"
	}
	return "unknown"
}

// Allreduce sums data element-wise across ranks under backend b and
// schedule algo (a fixed algorithm, not AlgoAuto) and returns the full
// reduced vector, bitwise identical on every rank.
func (c Collectives) Allreduce(r *cluster.Rank, b Backend, algo Algorithm, data []float32) ([]float32, error) {
	switch algo {
	case AlgoRing:
		return c.ring(world(r), b, data, true)
	case AlgoRecursiveDoubling:
		return c.rdAllreduce(world(r), b, data)
	case AlgoRabenseifner:
		return c.rabAllreduce(world(r), b, data)
	case AlgoHierarchical:
		return c.hier(r, b, data, true)
	}
	return nil, fmt.Errorf("core: no schedule for algorithm %v", algo)
}

// ReduceScatter sums data element-wise across ranks under backend b and
// schedule algo and returns this rank's reduced block (block index
// BlockOwned(rank, N)). The doubling schedules have no native
// reduce-scatter: they run the allreduce and keep the owned block.
func (c Collectives) ReduceScatter(r *cluster.Rank, b Backend, algo Algorithm, data []float32) ([]float32, error) {
	switch algo {
	case AlgoRing:
		return c.ring(world(r), b, data, false)
	case AlgoHierarchical:
		return c.hier(r, b, data, false)
	}
	full, err := c.Allreduce(r, b, algo, data)
	if err != nil {
		return nil, err
	}
	s, e := BlockBounds(len(data), r.N, BlockOwned(r.ID, r.N))
	return clone(full[s:e]), nil
}

// ---------------------------------------------------------------------------
// Ring
// ---------------------------------------------------------------------------

// ringReduce runs the ring reduce-scatter over g: in step s every rank
// sends block (id−s) to the next rank and accumulates block (id−s−1) from
// the previous one, so after N−1 steps red holds the fully reduced block
// BlockOwned(id, N). The block sent first is primed alone and the rest
// while the first exchange is in flight (paper §III-C: hZ's round-1
// compression pipelines against the ring; the charge is unchanged, only
// the first send moves earlier).
func ringReduce(g comm, red reducer) error {
	n := g.n()
	if err := red.prime(g.id); err != nil {
		return err
	}
	next, prev := (g.id+1)%n, (g.id-1+n)%n
	for step := 0; step < n-1; step++ {
		sendIdx := (g.id - step + n) % n
		recvIdx := (g.id - step - 1 + n) % n
		payload, err := red.wire(sendIdx, sendIdx+1)
		if err != nil {
			return err
		}
		err = g.send(next, payload, red.compressed())
		red.handoff(sendIdx, sendIdx+1, payload)
		if err != nil {
			return err
		}
		if step == 0 {
			if err := red.primeRest(); err != nil {
				return err
			}
		}
		got, err := g.recv(prev)
		if err != nil {
			return err
		}
		if err := red.accumulate(recvIdx, recvIdx+1, got); err != nil {
			return err
		}
	}
	return nil
}

// ring runs the ring reduce-scatter — cost (N−1)·CPT for Plain,
// (N−1)·(CPR + DPR + CPT) for C-Coll, N·CPR + (N−1)·HPR for hZ — and
// returns the owned block decoded. For allreduce it instead runs a ring
// allgather of each block's canonical bytes, which every rank decodes
// (its own block included): C-Coll compresses its reduced block once
// (CPR) for it, while hZ's reduced blocks already are canonical, so its
// allgather starts with no DPR + CPR between the two stages.
func (c Collectives) ring(g comm, b Backend, data []float32, allreduce bool) ([]float32, error) {
	red := c.reducer(b, g.r, data, g.n(), false, pooled)
	defer red.release()
	if err := ringReduce(g, red); err != nil {
		return nil, err
	}
	k := BlockOwned(g.id, g.n())
	if !allreduce {
		return red.block(k)
	}
	own, err := red.canonical(k)
	if err != nil {
		return nil, err
	}
	return allgatherDecode(g, red, own, len(data))
}

// allgatherBytes runs a ring allgather of opaque payloads over the
// communicator. The result maps origin local id → payload (own entry
// included). compressed labels the payloads for the wire-byte telemetry
// split.
func allgatherBytes(g comm, own []byte, compressed bool) ([][]byte, error) {
	n := g.n()
	out := make([][]byte, n)
	out[g.id] = own
	if n == 1 {
		return out, nil
	}
	next, prev := (g.id+1)%n, (g.id-1+n)%n
	cur := own
	for step := 0; step < n-1; step++ {
		got, err := g.sendRecv(next, cur, prev, compressed)
		if err != nil {
			return nil, err
		}
		origin := (g.id - step - 1 + n) % n
		out[origin] = got
		cur = got
	}
	return out, nil
}

// allgatherDecode runs the ring allgather of every rank's owned block and
// decodes each origin's payload into the block that origin owns. The
// payloads (own included, which the caller gives up) recycle into the
// codec's pool once decoded: allgatherBytes holds exactly one reference
// to each, and Send copies on enqueue.
func allgatherDecode(g comm, cd codec, own []byte, dataLen int) ([]float32, error) {
	gathered, err := allgatherBytes(g, own, cd.compressed())
	if err != nil {
		return nil, err
	}
	out := make([]float32, dataLen)
	for origin, payload := range gathered {
		k := BlockOwned(origin, g.n())
		s, e := BlockBounds(dataLen, g.n(), k)
		if err := cd.decode(payload, out[s:e]); err != nil {
			return nil, fmt.Errorf("core: rank %d decoding block %d: %w", g.r.ID, k, err)
		}
	}
	for _, p := range gathered {
		cd.recycle(p)
	}
	return out, nil
}

// AllreduceHZNaive is the ablation variant that does NOT fuse the stages:
// it decompresses at the end of reduce-scatter and recompresses before the
// allgather, paying the extra DPR + CPR the co-design removes. It exists
// to quantify the benefit of the Allreduce-specific optimization
// (paper §III-C2).
func (c Collectives) AllreduceHZNaive(r *cluster.Rank, data []float32) ([]float32, *hzdyn.Stats, error) {
	g := world(r)
	red := c.reducer(HZ, r, data, g.n(), false, pooled).(*hzReducer)
	defer red.release()
	if err := ringReduce(g, red); err != nil {
		return nil, nil, err
	}
	block, err := red.block(BlockOwned(g.id, g.n())) // the final DPR
	if err != nil {
		return nil, nil, err
	}
	own, err := red.encode(block)
	if err != nil {
		return nil, nil, err
	}
	out, err := allgatherDecode(g, red, own, len(data))
	if err != nil {
		return nil, nil, err
	}
	return out, &red.stats, nil
}
