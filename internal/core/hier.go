package core

import (
	"fmt"

	"hzccl/internal/cluster"
)

// Two-level hierarchical collectives. Ranks group into "nodes"
// (cluster.Config.Topology); the schedule exploits the fact that
// intra-node links are effectively free next to inter-node ones:
//
//  1. ring reduce-scatter among the node's members, so each member holds
//     a fully node-reduced block,
//  2. members ship their blocks to the node leader, which assembles the
//     node-partial vector,
//  3. ring allreduce among the node leaders only — the sole stage that
//     crosses node boundaries moves each byte once per leader pair
//     instead of once per rank pair,
//  4. binomial broadcast of the finished vector inside each node (or, for
//     reduce-scatter, a scatter of just each member's owned block).
//
// With no topology configured, Normalize yields a single node holding
// every rank: stage 3 degenerates to a 1-rank no-op and the schedule is a
// ring reduce-scatter plus gather/broadcast — correct, if pointless, so
// the cost model never selects it for flat clusters.
//
// Compression crosses every stage boundary honestly: for the C-Coll and
// hZCCL backends the member→leader blocks and the leader→member result
// travel compressed (CPR at the producer, DPR at the consumer), and stage
// 3 runs the backend's own ring allreduce among the leaders.

// hierComms splits the world into this rank's intra-node communicator and
// (for leaders) the inter-node leader communicator. leader is false — and
// inter unusable — for non-leader ranks.
func hierComms(r *cluster.Rank) (intra comm, inter comm, leader bool) {
	topo := r.Config().Topology.Normalize(r.N)
	node := topo.NodeOf(r.ID)
	intra, _ = subcomm(r, topo.Members(node))
	inter, leader = subcomm(r, topo.Leaders())
	return intra, inter, leader
}

// gatherNodePartial runs stage 2: every member sends its reduced block to
// the leader (local id 0), which assembles the full node-partial vector.
// Non-leader ranks return nil.
func gatherNodePartial(g comm, dataLen int, block []float32, cd codec) ([]float32, error) {
	m := g.n()
	if m == 1 {
		return clone(block), nil
	}
	if g.id != 0 {
		payload, err := cd.encode(block)
		if err != nil {
			return nil, err
		}
		if err := g.send(0, payload, cd.compressed()); err != nil {
			return nil, err
		}
		return nil, nil
	}
	partial := make([]float32, dataLen)
	s, e := BlockBounds(dataLen, m, BlockOwned(0, m))
	copy(partial[s:e], block)
	for j := 1; j < m; j++ {
		payload, err := g.recv(j)
		if err != nil {
			return nil, err
		}
		bs, be := BlockBounds(dataLen, m, BlockOwned(j, m))
		if err := cd.decode(payload, partial[bs:be]); err != nil {
			return nil, fmt.Errorf("core: leader %d assembling member %d block: %w", g.r.ID, j, err)
		}
	}
	return partial, nil
}

// bcastResult runs stage 4 of the allreduce: the leader encodes the
// finished vector once and the binomial tree fans it out; members decode.
func bcastResult(g comm, full []float32, dataLen int, leader bool, cd codec) ([]float32, error) {
	var payload []byte
	if leader {
		var err error
		if payload, err = cd.encode(full); err != nil {
			return nil, err
		}
	}
	payload, err := bcastBytes(g, payload, 0)
	if err != nil {
		return nil, err
	}
	if leader {
		return full, nil
	}
	out := make([]float32, dataLen)
	if err := cd.decode(payload, out); err != nil {
		return nil, err
	}
	return out, nil
}

// scatterOwnedBlocks runs stage 4 of the reduce-scatter: the leader sends
// each member only the block that member owns under the *world*
// reduce-scatter contract (block BlockOwned(globalRank, worldN)), instead
// of broadcasting the whole vector.
func scatterOwnedBlocks(g comm, full []float32, dataLen int, cd codec) ([]float32, error) {
	r := g.r
	ownBlock := func(global int) (int, int) {
		return BlockBounds(dataLen, r.N, BlockOwned(global, r.N))
	}
	if g.id == 0 {
		for j := 1; j < g.n(); j++ {
			s, e := ownBlock(g.global(j))
			payload, err := cd.encode(full[s:e])
			if err != nil {
				return nil, err
			}
			if err := g.send(j, payload, cd.compressed()); err != nil {
				return nil, err
			}
		}
		s, e := ownBlock(r.ID)
		return clone(full[s:e]), nil
	}
	payload, err := g.recv(0)
	if err != nil {
		return nil, err
	}
	s, e := ownBlock(r.ID)
	out := make([]float32, e-s)
	if err := cd.decode(payload, out); err != nil {
		return nil, err
	}
	return out, nil
}

// hier runs the hierarchical schedule: the ring reduce-scatter inside the
// node produces each member's node-reduced block, the blocks gather at the
// leader, and the ring allreduce among leaders reduces the node partials.
// The leader then broadcasts the finished vector inside its node
// (allreduce) or scatters each member only its owned world block
// (reduce-scatter).
func (c Collectives) hier(r *cluster.Rank, b Backend, data []float32, allreduce bool) ([]float32, error) {
	cd := c.codec(b, r, sized)
	intra, inter, leader := hierComms(r)
	block, err := c.ring(intra, b, data, false)
	if err != nil {
		return nil, err
	}
	partial, err := gatherNodePartial(intra, len(data), block, cd)
	if err != nil {
		return nil, err
	}
	var full []float32
	if leader {
		if full, err = c.ring(inter, b, partial, true); err != nil {
			return nil, err
		}
	}
	if allreduce {
		return bcastResult(intra, full, len(data), leader, cd)
	}
	return scatterOwnedBlocks(intra, full, len(data), cd)
}
