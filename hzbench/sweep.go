package main

import (
	"math/rand"

	"hzccl"
)

// sweepInproc drives the in-process channel fabric with 8 ranks on a
// 2x4 topology through every backend × algorithm, AlgoAuto included, in
// a fixed order. It is the only workload for the channel fabric, the
// doubling and hierarchical schedules and the cost-model selector.
// Compute is serialized under the fabric's lock, so 8 goroutine ranks
// do not oversubscribe the cores.
type sweepInproc struct {
	n   int
	set *inputSet
}

const sweepRel = 1e-4

var sweepTopology = hzccl.UniformTopology(2, 4)

func newSweepInproc(seed int64, bytesPerRank int) (*sweepInproc, error) {
	n := bytesPerRank / 4
	inputs, err := seededFields(rand.New(rand.NewSource(seed)), "SimSet1", 8, n, 8, n/8)
	if err != nil {
		return nil, err
	}
	return &sweepInproc{n: n, set: newInputSet(inputs, sweepRel)}, nil
}

func (w *sweepInproc) cycle() int        { return len(backends) * len(algorithms) }
func (w *sweepInproc) lanes() int        { return 1 }
func (w *sweepInproc) bytesPerRank() int { return 4 * w.n }

func (w *sweepInproc) seq(i int) opSpec {
	i %= w.cycle()
	return opSpec{backend: backends[i/len(algorithms)], algo: algorithms[i%len(algorithms)]}
}

type sweepSystem struct {
	w *sweepInproc
	f inproc
}

// start has no transport to form: the constructor is RunCluster itself,
// which the first operation calls.
func (w *sweepInproc) start() (system, error) {
	return &sweepSystem{w: w, f: inproc{n: 8, topo: sweepTopology}}, nil
}

func (s *sweepSystem) do(_ int, op opSpec, traced bool) opResult {
	return allreduceOp(s.f, s.w.set, op, traced)
}

func (s *sweepSystem) close() {}

func (w *sweepInproc) layers(sys system, o *outcome) error {
	m := o.metrics
	s := sys.(*sweepSystem)
	if err := codecReplay(m, [][][]float32{w.set.inputs}, w.set.eb); err != nil {
		return err
	}
	if err := fabricReplay(m, s.f, o); err != nil {
		return err
	}
	m.set("cluster.mesh_form_ms", "ms", fabricFormMs(s.f))
	return serveReplay(m, serveJob{dataset: "SimSet1", bytes: w.bytesPerRank(), rel: sweepRel})
}
