package core

import (
	"hzccl/internal/cluster"
)

// comm is a communicator: an ordered group of ranks executing one
// collective together. The algorithm implementations in this package are
// written against comm rather than *cluster.Rank directly, so the same
// ring / recursive / tree code runs at any level of a topology — over
// the whole world, over one node's members, or over the node leaders —
// with group-local peer ids transparently translated to global ranks.
//
// A comm does not change message semantics: sends and receives go
// through the underlying rank (and therefore through whatever transport,
// reliability and fault machinery the cluster is configured with).
type comm struct {
	r *cluster.Rank
	// ranks maps group-local id -> global rank. nil means the identity
	// mapping over the full world (the common, allocation-free case).
	ranks []int
	// id is this rank's local id within the group.
	id int
}

// world wraps a rank as the full-cluster communicator.
func world(r *cluster.Rank) comm { return comm{r: r, id: r.ID} }

// subcomm builds the communicator over the given global ranks (which
// must be sorted in the group's rank order). ok is false when the
// calling rank is not a member.
func subcomm(r *cluster.Rank, members []int) (comm, bool) {
	for i, g := range members {
		if g == r.ID {
			return comm{r: r, ranks: members, id: i}, true
		}
	}
	return comm{}, false
}

// n returns the group size.
func (g comm) n() int {
	if g.ranks == nil {
		return g.r.N
	}
	return len(g.ranks)
}

// global translates a group-local id to a global rank.
func (g comm) global(lid int) int {
	if g.ranks == nil {
		return lid
	}
	return g.ranks[lid]
}

// send posts one send to local id `to` and counts its bytes on the
// wire-byte telemetry; compressed says whether payload is an fZ-light
// container (vs raw float bytes). Split from recv so the pipelined ring
// can slide compute between a send and the matching receive.
func (g comm) send(to int, payload []byte, compressed bool) error {
	if err := g.r.Send(g.global(to), payload); err != nil {
		return err
	}
	mRingSteps.Inc()
	if compressed {
		mRingCompressedBytes.Add(int64(len(payload)))
	} else {
		mRingRawBytes.Add(int64(len(payload)))
	}
	return nil
}

// recv blocks for the next message from local id `from`, spanning the
// wait.
func (g comm) recv(from int) ([]byte, error) {
	sp := mStageSendRecvNS.Start()
	got, err := g.r.Recv(g.global(from))
	sp.End()
	return got, err
}

// sendRecv performs one counted exchange: send payload to local id `to`,
// receive from local id `from`.
func (g comm) sendRecv(to int, payload []byte, from int, compressed bool) ([]byte, error) {
	if err := g.send(to, payload, compressed); err != nil {
		return nil, err
	}
	return g.recv(from)
}

// rawSend/rawRecv are the uncounted variants for control-style moves
// (fold/unfold hand-offs, tree edges) that predate wire accounting.
func (g comm) rawSend(to int, data []byte) error {
	return g.r.Send(g.global(to), data)
}

func (g comm) rawRecv(from int) ([]byte, error) {
	return g.r.Recv(g.global(from))
}
