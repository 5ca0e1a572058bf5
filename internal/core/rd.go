package core

// Recursive-doubling allreduce: every rank keeps a full-length partial
// vector and exchanges it pairwise with partners at doubling distances —
// log₂(N) rounds of full-message traffic. Latency-optimal, so it wins
// the small-message regime where the ring's 2(N−1) message latencies
// dominate; the cost model (internal/costmodel) encodes the crossover.
//
// The whole vector is one reducer block. Each round sends its wire form,
// anchors the state to what was sent and adds what came back — Plain sums
// raw vectors, C-Coll sums dec(sent)+dec(got) (one extra DPR per round
// buys bitwise replication), hZ merges compressed vectors (CPR once,
// log₂(N)·HPR, DPR once).
//
// Non-power-of-two rank counts use the fold shared with Rabenseifner
// (fold, activeRanks): the first 2r ranks pair up so a power of two
// remains active, and folded ranks receive the final result during the
// unfold.
func (c Collectives) rdAllreduce(g comm, b Backend, data []float32) ([]float32, error) {
	n := g.n()
	if n == 1 {
		return clone(data), nil
	}
	p2, newrank := activeRanks(g.id, n)
	rem := n - p2
	red := c.reducer(b, g.r, data, 1, false, sized)
	defer red.release()
	if err := red.primeRest(); err != nil {
		return nil, err
	}
	final, folded, err := fold(g, red, rem, 1)
	if err != nil {
		return nil, err
	}
	if folded {
		return decodeNew(red, final)
	}

	for dist := 1; dist < p2; dist <<= 1 {
		partner := oldRank(newrank^dist, n, p2)
		sent, err := red.wire(0, 1)
		if err != nil {
			return nil, err
		}
		got, err := g.sendRecv(partner, sent, partner, red.compressed())
		if err != nil {
			return nil, err
		}
		if err := red.anchor(0, sent); err != nil {
			return nil, err
		}
		if err := red.accumulate(0, 1, got); err != nil {
			return nil, err
		}
	}

	// Unfold: a folded rank can only decode the canonical bytes of the
	// final vector, so with a fold every active rank anchors to those
	// bytes first — they are the same bytes on every active rank, hence
	// replication holds world-wide.
	if rem > 0 {
		blob, err := red.canonical(0)
		if err != nil {
			return nil, err
		}
		if err := red.anchor(0, blob); err != nil {
			return nil, err
		}
		if g.id < 2*rem {
			if err := g.rawSend(g.id-1, blob); err != nil {
				return nil, err
			}
		}
	}
	return red.block(0)
}

// fold runs the non-power-of-two fold shared by the doubling schedules:
// of the first 2·rem ranks, each even one hands its whole vector (all nb
// reducer blocks) to its odd partner, which accumulates it, and waits for
// the finished vector. For those folded ranks it returns folded = true
// with the unfold message their partner sent back.
func fold(g comm, red reducer, rem, nb int) (final []byte, folded bool, err error) {
	if g.id >= 2*rem {
		return nil, false, nil
	}
	if g.id%2 == 1 {
		got, err := g.rawRecv(g.id - 1)
		if err != nil {
			return nil, false, err
		}
		return nil, false, red.accumulate(0, nb, got)
	}
	payload, err := red.wire(0, nb)
	if err != nil {
		return nil, true, err
	}
	err = g.rawSend(g.id+1, payload)
	red.handoff(0, nb, payload)
	if err != nil {
		return nil, true, err
	}
	final, err = g.rawRecv(g.id + 1)
	return final, true, err
}
