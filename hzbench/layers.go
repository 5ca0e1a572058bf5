package main

import (
	"fmt"
	"time"

	"hzccl"
	"hzccl/internal/telemetry"
	"hzccl/serve"
)

// The layer replay harness: after the timed loop of a traced run, it
// times the public layer calls on the workload's own captured inputs
// and fabric. Each replay is a span of the benchmark's own around one
// layer call.

// replayBudget bounds each timed replay loop.
const replayBudget = 100 * time.Millisecond

// repeat calls f until replayBudget has passed (at least atLeast times)
// and returns the per-call seconds.
func repeat(atLeast int, f func() error) ([]float64, error) {
	var xs []float64
	start := time.Now()
	for len(xs) < atLeast || time.Since(start) < replayBudget {
		t0 := time.Now()
		if err := f(); err != nil {
			return nil, err
		}
		xs = append(xs, time.Since(t0).Seconds())
	}
	return xs, nil
}

// scheduleReplay runs every backend × algorithm reps times through do
// and returns the wall times in ms by schedule key.
func scheduleReplay(do func(opSpec) opResult, reps int) (map[string][]float64, error) {
	byKey := map[string][]float64{}
	for k := 0; k < reps; k++ {
		for _, b := range backends {
			for _, a := range algorithms {
				r := do(opSpec{backend: b, algo: a})
				if r.err != nil {
					return nil, r.err
				}
				byKey[r.key] = append(byKey[r.key], r.wall*1e3)
			}
		}
	}
	return byKey, nil
}

// codecReplay times hzccl.Compress, hzccl.DecompressInto and
// hzccl.HomomorphicAdd on the workload's inputs (each set holds one
// operation's per-rank inputs; adds pair neighbouring ranks), and the
// plain float64 sum baseline over the same inputs.
func codecReplay(m metrics, sets [][][]float32, eb float64) error {
	p := hzccl.Params{ErrorBound: eb}
	var enc, dec, add, sum float64
	var rawBytes, sumBytes float64
	var streams [][][]byte
	for _, set := range sets {
		var ss [][]byte
		for _, in := range set {
			var c []byte
			xs, err := repeat(1, func() (err error) { c, err = hzccl.Compress(in, p); return err })
			if err != nil {
				return fmt.Errorf("compress: %w", err)
			}
			enc += median(xs)
			ss = append(ss, c)
			rawBytes += float64(4 * len(in))
		}
		streams = append(streams, ss)
	}
	for si, set := range sets {
		for r, in := range set {
			dst := make([]float32, len(in))
			xs, err := repeat(1, func() error { return hzccl.DecompressInto(streams[si][r], dst) })
			if err != nil {
				return fmt.Errorf("decompress: %w", err)
			}
			dec += median(xs)
			a, b := streams[si][r], streams[si][(r+1)%len(set)]
			xs, err = repeat(1, func() error { _, err := hzccl.HomomorphicAdd(a, b); return err })
			if err != nil {
				return fmt.Errorf("homomorphic add: %w", err)
			}
			add += median(xs)
		}
		xs, _ := repeat(1, func() error { referenceSum(set); return nil })
		sum += median(xs)
		sumBytes += float64(4 * len(set) * len(set[0]))
	}
	// Each figure is raw bytes over the summed median call times; the add
	// counts one operand's raw bytes per call.
	m.set("fzlight.encode_MBps", "MB/s", rawBytes/enc/1e6)
	m.set("fzlight.decode_MBps", "MB/s", rawBytes/dec/1e6)
	m.set("hzdyn.add_MBps", "MB/s", rawBytes/add/1e6)
	m.set("baseline.sum_MBps", "MB/s", sumBytes/sum/1e6)
	return nil
}

// fabricReplay times Rank.Send/Recv round trips with a small payload,
// one-way streaming at the workload's mean per-step payload size, and
// Rank.Barrier, on the workload's fabric.
func fabricReplay(m metrics, f fabric, o *outcome) error {
	const pings, barriers = 400, 200
	var rtt []float64
	_, err := f.run(baseConfig(), false, func(r *hzccl.Rank) error {
		msg := make([]byte, 64)
		switch r.ID() {
		case 0:
			for k := 0; k < pings; k++ {
				t0 := time.Now()
				if err := r.Send(1, msg); err != nil {
					return err
				}
				if _, err := r.Recv(1); err != nil {
					return err
				}
				rtt = append(rtt, time.Since(t0).Seconds())
			}
		case 1:
			for k := 0; k < pings; k++ {
				got, err := r.Recv(0)
				if err != nil {
					return err
				}
				if err := r.Send(0, got); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("ping-pong: %w", err)
	}
	m.set("cluster.pingpong_us", "us", median(rtt)*1e6)

	// Frame size: the mean payload one schedule step put on the fabric.
	frame := 64
	if steps := o.counters.Counters["core.ring.steps"]; steps > 0 {
		frame = max(frame, int(m["cluster.wire_bytes_per_op"].Value*float64(len(o.ops))/float64(steps)))
	}
	frames := min(max((64<<20)/frame, 16), 2000)
	var streamSec float64
	_, err = f.run(baseConfig(), false, func(r *hzccl.Rank) error {
		buf := make([]byte, frame)
		switch r.ID() {
		case 0:
			t0 := time.Now()
			for k := 0; k < frames; k++ {
				if err := r.Send(1, buf); err != nil {
					return err
				}
			}
			if _, err := r.Recv(1); err != nil {
				return err
			}
			streamSec = time.Since(t0).Seconds()
		case 1:
			for k := 0; k < frames; k++ {
				if _, err := r.Recv(0); err != nil {
					return err
				}
			}
			return r.Send(0, buf[:1])
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	m.set("cluster.stream_MBps", "MB/s", float64(frames*frame)/streamSec/1e6)

	var barrierSec float64
	_, err = f.run(baseConfig(), false, func(r *hzccl.Rank) error {
		t0 := time.Now()
		for k := 0; k < barriers; k++ {
			if err := r.Barrier(); err != nil {
				return err
			}
		}
		if r.ID() == 0 {
			barrierSec = time.Since(t0).Seconds()
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("barrier: %w", err)
	}
	m.set("cluster.barrier_us", "us", barrierSec/barriers*1e6)
	return nil
}

// meshFormMs is the median NewTCPTransport formation time of the given
// mesh and four fresh meshes of the same size.
func meshFormMs(ms *mesh) float64 {
	xs := []float64{ms.formed}
	for k := 0; k < 4; k++ {
		fresh, err := newMesh(ms.ranks())
		if err != nil {
			continue
		}
		xs = append(xs, fresh.formed)
		fresh.close()
	}
	return median(xs) * 1e3
}

// fabricFormMs is the median time RunCluster takes to stand up and tear
// down the in-process fabric around an empty body.
func fabricFormMs(f inproc) float64 {
	xs, _ := repeat(5, func() error {
		_, err := f.run(baseConfig(), false, func(*hzccl.Rank) error { return nil })
		return err
	})
	return median(xs) * 1e3
}

// serveReplay measures the daemon layer at a workload's job shape: a
// 2-rank hzccl-serve, Client.Ping round trips, and a few hZCCL ring
// allreduce jobs checked against their standalone runs.
func serveReplay(m metrics, job serveJob) error {
	w := &serveMixed{job: job, clients: 1, refs: map[serve.JobSpec]*jobRef{}}
	d, err := startDaemon(w)
	if err != nil {
		return err
	}
	defer d.close()
	op := opSpec{backend: hzccl.BackendHZCCL, algo: hzccl.AlgoRing}
	if _, err := w.ref(w.spec(op)); err != nil {
		return err
	}
	snap := telemetry.Capture()
	var ops []opResult
	for k := 0; k < 5; k++ {
		r := d.do(0, op, false)
		if r.err != nil {
			return r.err
		}
		ops = append(ops, r)
	}
	serveMetrics(m, d, ops, telemetry.Capture().Delta(snap).Counters)
	return nil
}
