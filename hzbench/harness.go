package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hzccl"
	"hzccl/internal/telemetry"
)

// opSpec is one operation of a workload's fixed sequence.
type opSpec struct {
	backend hzccl.Backend
	algo    hzccl.Algorithm
	scatter bool // reduce_scatter instead of allreduce
	input   int  // index of the seeded input set
}

func (s opSpec) key() string { return backendName(s.backend) + "." + s.algo.String() }

// opResult is one timed, checked operation.
type opResult struct {
	key string
	// wall is the operation's wall time: from the shared barrier until
	// the slowest rank returns, or a daemon job's Submit round trip.
	wall float64
	// virtual is the cost model's time for the same operation
	// (RunResult.Seconds, JobResult.VirtualSeconds).
	virtual float64
	// inner is a daemon job's own collective wall time
	// (JobResult.WallSeconds); 0 elsewhere.
	inner  float64
	traced bool
	// lanes is how many ranks can compute at once during the operation:
	// the in-process fabric serializes compute, a TCP rank owns its
	// goroutine. Busy shares are span time over wall × lanes.
	lanes float64
	// busy sums the wall-clock compute spans of the traced operation by
	// category (CPR, DPR, HPR, CPT) over all ranks, in seconds.
	busy map[string]float64
	// errOverEb is the worst |output − reference| ÷ eb of the operation.
	errOverEb float64
	// check is the time spent checking the outputs after the timing
	// ended; it is taken out of the goodput window.
	check float64
	err   error
}

// system is a running instance of a workload: a TCP mesh, the in-process
// fabric, or a daemon with its clients.
type system interface {
	// do runs one operation on the given closed-loop lane, checks it
	// and returns its measurements.
	do(lane int, s opSpec, traced bool) opResult
	close()
}

// workload is one benchmark workload: seeded inputs, a public
// constructor, and a fixed operation sequence.
type workload interface {
	// start builds the system through the program's public constructor.
	start() (system, error)
	// seq returns the i-th operation of the fixed sequence; one cycle is
	// cycle() operations long.
	seq(i int) opSpec
	cycle() int
	// lanes is the number of concurrent closed-loop callers.
	lanes() int
	// bytesPerRank is the per-rank input size of one operation.
	bytesPerRank() int
	// layers runs the layer replay harness on the running system after
	// the timed loop of a traced run and adds its metrics to o.metrics.
	layers(sys system, o *outcome) error
}

// metric is one named, unit-bearing measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// runConfig controls one benchmark run.
type runConfig struct {
	seconds   float64
	traced    bool
	setupRuns int // how many times the system is set up; setup_s is their median
	minOps    int // lower bound on timed operations, so the tail is resolved
}

// outcome is everything one run measured.
type outcome struct {
	setup     []float64
	ops       []opResult
	attempted int
	failed    int
	window    float64 // seconds of the timed window, checks excluded
	firstErr  error
	metrics   metrics
	tail      tail
	worstErr  float64
	counters  telemetry.Snapshot
	mem0      runtime.MemStats
	mem1      runtime.MemStats
	// mem0At and mem1At are the seconds since process start at which
	// mem0 and mem1 were read.
	mem0At, mem1At float64
	// stealShare is the host's steal share of CPU time during the timed
	// loop, a record of how disturbed the run was.
	stealShare float64
}

// processStart anchors the cumulative GC CPU fraction of ReadMemStats.
var processStart = time.Now()

// execute runs one workload: set-up samples, a warm-up cycle, the timed
// closed loop, and then either the end-to-end metrics or, in a traced
// run, the per-layer metrics and layer replays.
func execute(w workload, cfg runConfig) (*outcome, error) {
	out := &outcome{metrics: metrics{}}
	count := func(r opResult) {
		out.attempted++
		if r.err != nil {
			out.failed++
			if out.firstErr == nil {
				out.firstErr = r.err
			}
		}
	}

	// Set-up: the constructor through the end of the first operation,
	// repeated; the last system stays up for the timed loop.
	var sys system
	for k := 0; k < cfg.setupRuns; k++ {
		t0 := time.Now()
		s, err := w.start()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r := s.do(0, w.seq(0), false)
		out.setup = append(out.setup, time.Since(t0).Seconds())
		count(r)
		if k < cfg.setupRuns-1 {
			s.close()
		} else {
			sys = s
		}
	}
	defer sys.close()

	// Warm-up: one full cycle, untimed, so pools and caches are filled.
	for i := 0; i < max(w.cycle(), 2); i++ {
		count(sys.do(0, w.seq(i), false))
	}

	snap0 := telemetry.Capture()
	runtime.ReadMemStats(&out.mem0)
	out.mem0At = time.Since(processStart).Seconds()
	total0, steal0 := cpuTicks()
	t0 := time.Now()
	ops := closedLoop(sys, w, cfg)
	elapsed := time.Since(t0).Seconds()
	if total1, steal1 := cpuTicks(); total1 > total0 {
		out.stealShare = float64(steal1-steal0) / float64(total1-total0)
	}
	runtime.ReadMemStats(&out.mem1)
	out.mem1At = time.Since(processStart).Seconds()
	out.counters = telemetry.Capture().Delta(snap0)

	checks := 0.0
	for _, r := range ops {
		count(r)
		checks += r.check
		out.worstErr = math.Max(out.worstErr, r.errOverEb)
	}
	out.ops = ops
	out.window = elapsed - checks/float64(w.lanes())

	if cfg.traced {
		perLayer(w, out)
		if err := w.layers(sys, out); err != nil {
			return nil, fmt.Errorf("layer replay: %w", err)
		}
	} else {
		endToEnd(w, out)
	}
	return out, nil
}

// closedLoop runs the workload's sequence on lanes() concurrent callers,
// each issuing its next operation only after the previous one returned.
// It stops at the first cycle boundary after cfg.seconds (and after at
// least cfg.minOps operations), so every run covers whole cycles. In a
// traced run, alternate cycles attach tracing, which pairs traced and
// untraced operations for the overhead figure.
func closedLoop(sys system, w workload, cfg runConfig) []opResult {
	var (
		next   atomic.Int64
		stopAt atomic.Int64
		mu     sync.Mutex
		ops    []opResult
		wg     sync.WaitGroup
	)
	stopAt.Store(math.MaxInt64)
	cycle := int64(w.cycle())
	minOps := int64(cfg.minOps)
	if cfg.traced {
		minOps = max(minOps, 2*cycle) // at least one traced and one untraced cycle
	}
	if minOps%cycle != 0 {
		minOps += cycle - minOps%cycle
	}
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for lane := 0; lane < w.lanes(); lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= stopAt.Load() {
					return
				}
				if i%cycle == 0 && i >= minOps && time.Now().After(deadline) {
					stopAt.Store(i) // every index below i is already claimed
					return
				}
				traced := cfg.traced && (i/cycle)%2 == 1
				r := sys.do(lane, w.seq(int(i)), traced)
				mu.Lock()
				ops = append(ops, r)
				mu.Unlock()
			}
		}(lane)
	}
	wg.Wait()
	return ops
}

// endToEnd derives the user-facing metrics of an untraced run.
func endToEnd(w workload, o *outcome) {
	m := o.metrics
	walls := make([]float64, 0, len(o.ops))
	for _, r := range o.ops {
		walls = append(walls, r.wall*1e3)
	}
	o.tail = tailOf(walls)
	m.set("setup_s", "s", median(o.setup))
	m.set("op_p50_ms", "ms", median(walls))
	m.set("op_tail_ms", "ms", o.tail.Value)
	m.set("goodput_MBps", "MB/s", float64(w.bytesPerRank())*float64(len(o.ops)-countFailed(o.ops))/o.window/1e6)
	m.set("max_err_over_eb", "x", o.worstErr)
	m.set("success_share", "share", 1-float64(o.failed)/float64(max(o.attempted, 1)))
	m.set("peak_rss_MB", "MB", peakRSSMB())
}

func countFailed(ops []opResult) int {
	n := 0
	for _, r := range ops {
		if r.err != nil {
			n++
		}
	}
	return n
}

// Span categories recorded by the program's own compute timing (the
// trace's wall events and the core.stage.* histograms).
var busyCats = []string{"CPR", "DPR", "HPR", "CPT"}

// perLayer derives the per-layer metrics that come from the timed loop
// itself: span shares, counter and histogram deltas, memory statistics
// and the traced-over-untraced overhead.
func perLayer(w workload, o *outcome) {
	m := o.metrics
	n := float64(len(o.ops))
	c := o.counters.Counters

	// Busy shares: span seconds over the traced operations' wall time
	// times their compute lanes. The daemon's jobs cannot carry a
	// trace, so that workload takes the spans from the core.stage.*
	// histograms, over every operation.
	busy := map[string]float64{}
	rankTime := 0.0
	for _, r := range o.ops {
		if r.busy == nil {
			continue
		}
		for k, v := range r.busy {
			busy[k] += v
		}
		rankTime += r.wall * r.lanes
	}
	if rankTime == 0 {
		h := o.counters.Histograms
		busy["CPR"] = float64(h["core.stage.compress_ns"].Sum) / 1e9
		busy["DPR"] = float64(h["core.stage.decompress_ns"].Sum) / 1e9
		busy["HPR"] = float64(h["core.stage.reduce_homomorphic_ns"].Sum) / 1e9
		busy["CPT"] = float64(h["core.stage.reduce_raw_ns"].Sum) / 1e9
		for _, r := range o.ops {
			rankTime += r.wall * r.lanes
		}
	}
	share := func(cats ...string) float64 {
		s := 0.0
		for _, k := range cats {
			s += busy[k]
		}
		return s / rankTime
	}
	m.set("fzlight.busy_share", "share", share("CPR", "DPR"))
	m.set("hzdyn.busy_share", "share", share("HPR"))
	m.set("core.cpt_busy_share", "share", share("CPT"))
	m.set("cluster.wait_share", "share", 1-share(busyCats...))

	raw, comp := c["fzlight.compress.raw_bytes"], c["fzlight.compress.compressed_bytes"]
	m.set("fzlight.ratio", "x", float64(raw)/math.Max(float64(comp), 1))
	pc := o.counters.Histograms["hzdyn.pipeline_case"]
	p4 := 0.0
	for _, b := range pc.Buckets {
		if b.Le == "4" {
			p4 = float64(b.Count)
		}
	}
	m.set("hzdyn.p4_share", "share", p4/math.Max(float64(pc.Count), 1))
	m.set("hzdyn.overflow_fallbacks_per_op", "count", float64(c["hzdyn.overflow_fallbacks"])/n)
	m.set("core.steps_per_op", "count", float64(c["core.ring.steps"])/n)
	wire := c["cluster.transport.bytes_out"]
	if wire == 0 { // the in-process fabric has no wire; count the schedules' payloads
		wire = c["core.ring.compressed_bytes"] + c["core.ring.raw_bytes"]
	}
	m.set("cluster.wire_bytes_per_op", "bytes", float64(wire)/n)
	m.set("cluster.retx_per_op", "count", float64(c["cluster.nacks"]+c["cluster.retransmits"])/n)
	hits, misses := c["bufpool.hits"], c["bufpool.misses"]
	m.set("bufpool.hit_share", "share", float64(hits)/math.Max(float64(hits+misses), 1))

	virt, wall := 0.0, 0.0
	for _, r := range o.ops {
		virt += r.virtual
		if r.inner > 0 {
			wall += r.inner
		} else {
			wall += r.wall
		}
	}
	m.set("costmodel.virtual_over_wall", "x", virt/wall)

	m0, m1 := &o.mem0, &o.mem1
	m.set("go.allocs_per_op", "count", float64(m1.Mallocs-m0.Mallocs)/n)
	m.set("go.alloc_MB_per_op", "MB", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6/n)
	// GCCPUFraction is cumulative since process start; difference the
	// GC CPU time it implies over the timed window.
	gc0 := m0.GCCPUFraction * o.mem0At
	gc1 := m1.GCCPUFraction * o.mem1At
	m.set("go.gc_cpu_share", "share", math.Max(gc1-gc0, 0)/(o.mem1At-o.mem0At))

	var tr, un []float64
	for _, r := range o.ops {
		if r.traced {
			tr = append(tr, r.wall)
		} else {
			un = append(un, r.wall)
		}
	}
	m.set("telemetry.trace_overhead_pct", "%", 100*(median(tr)/median(un)-1))

	// Per-schedule medians and AlgoAuto's regret over the best fixed
	// schedule, from whatever schedules the loop or a replay ran.
	byKey := map[string][]float64{}
	for _, r := range o.ops {
		byKey[r.key] = append(byKey[r.key], r.wall*1e3)
	}
	comboMedians(m, byKey)
}

// comboMedians sets core.<backend>.<algo>.p50_ms for every schedule in
// byKey and costmodel.auto_regret.<backend> where auto and at least one
// fixed algorithm ran.
func comboMedians(m metrics, byKey map[string][]float64) {
	for _, b := range backends {
		best := math.Inf(1)
		for _, a := range algorithms {
			k := backendName(b) + "." + a.String()
			xs, ok := byKey[k]
			if !ok {
				continue
			}
			p := median(xs)
			m.set("core."+k+".p50_ms", "ms", p)
			if a != hzccl.AlgoAuto {
				best = math.Min(best, p)
			}
		}
		if auto, ok := byKey[backendName(b)+".auto"]; ok && !math.IsInf(best, 1) {
			m.set("costmodel.auto_regret."+backendName(b), "x", median(auto)/best)
		}
	}
}

var (
	backends   = []hzccl.Backend{hzccl.BackendMPI, hzccl.BackendCColl, hzccl.BackendHZCCL}
	algorithms = []hzccl.Algorithm{hzccl.AlgoRing, hzccl.AlgoRecursiveDoubling, hzccl.AlgoRabenseifner, hzccl.AlgoHierarchical, hzccl.AlgoAuto}
)

func backendName(b hzccl.Backend) string {
	switch b {
	case hzccl.BackendMPI:
		return "mpi"
	case hzccl.BackendCColl:
		return "ccoll"
	}
	return "hzccl"
}

// busySpans sums a trace's wall-clock compute spans by category.
func busySpans(traces ...*hzccl.Trace) map[string]float64 {
	busy := map[string]float64{}
	for _, t := range traces {
		if t == nil {
			continue
		}
		for _, ev := range t.WallEvents() {
			busy[string(ev.Category)] += ev.Dur
		}
	}
	return busy
}
