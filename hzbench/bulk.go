package main

import (
	"math/rand"

	"hzccl"
)

// bulkTCP is the paper's headline case: hZCCL ring allreduce of large
// CESM-ATM fields on a 2-rank loopback TCP mesh. Nearly every block pair
// takes homomorphic pipeline ④, so the codec and the homomorphic add do
// most of the work and the wire carries a few large compressed frames.
type bulkTCP struct {
	n   int // elements per rank
	set *inputSet
}

const bulkRel = 1e-4

func newBulkTCP(seed int64, bytesPerRank int) (*bulkTCP, error) {
	n := bytesPerRank / 4
	inputs, err := seededFields(rand.New(rand.NewSource(seed)), "CESM-ATM", 2, n, 8, n/8)
	if err != nil {
		return nil, err
	}
	return &bulkTCP{n: n, set: newInputSet(inputs, bulkRel)}, nil
}

func (w *bulkTCP) cycle() int        { return 1 }
func (w *bulkTCP) lanes() int        { return 1 }
func (w *bulkTCP) bytesPerRank() int { return 4 * w.n }

func (w *bulkTCP) seq(int) opSpec {
	return opSpec{backend: hzccl.BackendHZCCL, algo: hzccl.AlgoRing}
}

type bulkSystem struct {
	w *bulkTCP
	m *mesh
}

func (w *bulkTCP) start() (system, error) {
	m, err := newMesh(2)
	if err != nil {
		return nil, err
	}
	return &bulkSystem{w: w, m: m}, nil
}

func (s *bulkSystem) do(_ int, op opSpec, traced bool) opResult {
	return allreduceOp(s.m, s.w.set, op, traced)
}

func (s *bulkSystem) close() { s.m.close() }

func (w *bulkTCP) layers(sys system, o *outcome) error {
	m := o.metrics
	s := sys.(*bulkSystem)
	// Every schedule at this size on this mesh, a few times each, for the
	// per-schedule medians and AlgoAuto's regret.
	byKey, err := scheduleReplay(func(op opSpec) opResult { return s.do(0, op, false) }, 3)
	if err != nil {
		return err
	}
	comboMedians(m, byKey)
	if err := codecReplay(m, [][][]float32{w.set.inputs}, w.set.eb); err != nil {
		return err
	}
	if err := fabricReplay(m, s.m, o); err != nil {
		return err
	}
	m.set("cluster.mesh_form_ms", "ms", meshFormMs(s.m))
	return serveReplay(m, serveJob{dataset: "CESM-ATM", bytes: w.bytesPerRank(), rel: bulkRel})
}
