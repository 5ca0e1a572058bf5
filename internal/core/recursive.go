package core

import "math/bits"

// Rabenseifner's allreduce: recursive-halving reduce-scatter followed by
// recursive-doubling allgather — log₂(N) rounds instead of the ring's
// N−1, the algorithm MPI implementations prefer once latency matters.
//
// The vector is cut into p2 reducer blocks. Each halving round sends the
// wire form of the half this rank gives up and accumulates the partner's
// copy of the half it keeps, so under hZ the homomorphic co-design
// extends to this second algorithm family: compressed block sets are
// exchanged and reduced at every halving step. The doubling stage then
// moves each block's canonical bytes — compressed once by the rank whose
// halving ended on it, framed, never re-compressed — and every rank
// decodes all p2 blocks at the end.
//
// Non-power-of-two rank counts use the standard fold: the first 2r ranks
// pair up so 2^m ranks remain active; folded ranks receive the final
// result afterwards.
func (c Collectives) rabAllreduce(g comm, b Backend, data []float32) ([]float32, error) {
	n := g.n()
	if n == 1 {
		return clone(data), nil
	}
	p2, newrank := activeRanks(g.id, n)
	rem := n - p2
	red := c.reducer(b, g.r, data, p2, true, sized)
	defer red.release()
	if err := red.primeRest(); err != nil {
		return nil, err
	}
	final, folded, err := fold(g, red, rem, p2)
	if err != nil {
		return nil, err
	}
	out := make([]float32, len(data))
	if folded {
		if err := red.finalDecode(final, out); err != nil {
			return nil, err
		}
		return out, nil
	}

	// Recursive halving over p2 blocks.
	lo, hi := 0, p2
	for dist := p2 / 2; dist >= 1; dist /= 2 {
		partner := oldRank(newrank^dist, n, p2)
		mid := (lo + hi) / 2
		keepLo, keepHi, sendLo, sendHi := lo, mid, mid, hi
		if newrank&dist != 0 {
			keepLo, keepHi, sendLo, sendHi = mid, hi, lo, mid
		}
		payload, err := red.wire(sendLo, sendHi)
		if err != nil {
			return nil, err
		}
		got, err := g.sendRecv(partner, payload, partner, red.compressed())
		red.handoff(sendLo, sendHi, payload)
		if err != nil {
			return nil, err
		}
		if err := red.accumulate(keepLo, keepHi, got); err != nil {
			return nil, err
		}
		lo, hi = keepLo, keepHi
	}

	// Recursive-doubling allgather of canonical blocks: the partner owns
	// the mirrored segment at each distance.
	p := part{len(data), p2}
	blobs := make([][]byte, p2)
	if blobs[lo], err = red.canonical(lo); err != nil {
		return nil, err
	}
	for dist := 1; dist < p2; dist *= 2 {
		partner := oldRank(newrank^dist, n, p2)
		got, err := g.sendRecv(partner, red.pack(blobs[lo:hi]), partner, red.compressed())
		if err != nil {
			return nil, err
		}
		plo, phi := hi, 2*hi-lo
		if newrank&dist != 0 {
			plo, phi = 2*lo-hi, lo
		}
		theirs, err := red.unpack(got, p, plo, phi)
		if err != nil {
			return nil, err
		}
		copy(blobs[plo:phi], theirs)
		lo, hi = min(lo, plo), max(hi, phi)
	}

	// Decode every block from its canonical bytes (own included).
	if err := decodeBlocks(red, p, blobs, out); err != nil {
		return nil, err
	}

	// Unfold: ship the finished vector to the folded partner.
	if g.id < 2*rem {
		if err := g.rawSend(g.id-1, red.finalWire(blobs, out)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// activeRanks computes the power-of-two active set: p2 active ranks, and
// this rank's id in the active space (-1 if folded away).
func activeRanks(rank, n int) (p2, newrank int) {
	p2 = 1 << uint(bits.Len(uint(n))-1)
	if p2 > n {
		p2 >>= 1
	}
	r := n - p2
	switch {
	case rank < 2*r && rank%2 == 0:
		return p2, -1
	case rank < 2*r:
		return p2, rank / 2
	default:
		return p2, rank - r
	}
}

// oldRank inverts activeRanks for message addressing.
func oldRank(newrank, n, p2 int) int {
	r := n - p2
	if newrank < r {
		return 2*newrank + 1
	}
	return newrank + r
}
