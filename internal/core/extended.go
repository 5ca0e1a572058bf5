package core

import (
	"fmt"

	"hzccl/internal/cluster"
	"hzccl/internal/hzdyn"
)

// This file extends the framework beyond the paper's two showcase
// operations to the rest of the collective family the C-Coll substrate
// (Huang et al., IPDPS'24) covers: Broadcast, Reduce, Gather, Allgather
// and Alltoall. Data-movement collectives gain compression by compressing
// once at the source and decompressing once at each sink; the computation
// collective (Reduce) additionally gains the homomorphic treatment, with
// partial sums travelling in compressed form up a binomial tree.

// vrank maps a rank into the rotated coordinate system where `root` is 0,
// the standard trick for rooted binomial-tree collectives.
func vrank(rank, root, n int) int { return (rank - root + n) % n }

func unvrank(v, root, n int) int { return (v + root) % n }

// BroadcastPlain sends root's data to every rank through a binomial tree
// (the MPICH algorithm for mid-sized messages) and returns each rank's
// copy. Non-root ranks pass their (ignored) local buffer for its length.
func (c Collectives) BroadcastPlain(r *cluster.Rank, data []float32, root int) ([]float32, error) {
	return c.broadcast(rawCodec{}, r, data, root)
}

// BroadcastCompressed is the compression-accelerated broadcast: the root
// compresses once (CPR), compressed bytes traverse the tree, and every
// non-root rank decompresses once (DPR) — the C-Coll broadcast design.
func (c Collectives) BroadcastCompressed(r *cluster.Rank, data []float32, root int) ([]float32, error) {
	return c.broadcast(fzCodec{c: c, r: r}, r, data, root)
}

func (c Collectives) broadcast(cd codec, r *cluster.Rank, data []float32, root int) ([]float32, error) {
	var payload []byte
	if r.ID == root {
		var err error
		if payload, err = cd.encode(data); err != nil {
			return nil, err
		}
	}
	payload, err := bcastBytes(world(r), payload, root)
	if err != nil {
		return nil, err
	}
	if r.ID == root {
		return clone(data), nil
	}
	return decodeNew(cd, payload)
}

// decodeNew decodes a payload into a fresh slice sized by the payload
// itself.
func decodeNew(cd codec, blob []byte) ([]float32, error) {
	n, err := cd.count(blob)
	if err != nil {
		return nil, err
	}
	out := make([]float32, n)
	if err := cd.decode(blob, out); err != nil {
		return nil, err
	}
	return out, nil
}

// decodeEach decodes the per-rank payloads of a gather, taking this
// rank's own entry straight from data.
func decodeEach(cd codec, self int, data []float32, payloads [][]byte) ([][]float32, error) {
	out := make([][]float32, len(payloads))
	for i, p := range payloads {
		if i == self {
			out[i] = clone(data)
			continue
		}
		var err error
		if out[i], err = decodeNew(cd, p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// bcastBytes moves one opaque payload from root to all ranks of g along a
// binomial tree; root is a group-local id and only its payload is used.
// The hierarchical collectives run it over one node's members with the
// leader as root.
func bcastBytes(g comm, payload []byte, root int) ([]byte, error) {
	n := g.n()
	if root < 0 || root >= n {
		return nil, fmt.Errorf("core: broadcast root %d out of range", root)
	}
	if n == 1 {
		return payload, nil
	}
	v := vrank(g.id, root, n)
	// Receive from the parent: v with its lowest set bit cleared (the
	// MPICH binomial schedule).
	if v != 0 {
		parent := v & (v - 1)
		got, err := g.rawRecv(unvrank(parent, root, n))
		if err != nil {
			return nil, err
		}
		payload = got
	}
	// Forward to children v|mask for every mask below v's lowest set bit.
	for mask := nextPow2(n) >> 1; mask > 0; mask >>= 1 {
		child := v | mask
		if mask < lowbitFloor(v) && child < n {
			if err := g.rawSend(unvrank(child, root, n), payload); err != nil {
				return nil, err
			}
		}
	}
	return payload, nil
}

// lowbitFloor returns the value of v's lowest set bit, or a large sentinel
// for v == 0 (the root forwards to every level).
func lowbitFloor(v int) int {
	if v == 0 {
		return 1 << 30
	}
	return v & -v
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// GatherPlain collects every rank's data at root (concatenated in rank
// order). Only the root receives a non-nil result.
func (c Collectives) GatherPlain(r *cluster.Rank, data []float32, root int) ([][]float32, error) {
	return c.gather(rawCodec{}, r, data, root)
}

// GatherCompressed compresses each rank's contribution once (CPR at the
// leaf) and decompresses everything at the root (N−1 DPR).
func (c Collectives) GatherCompressed(r *cluster.Rank, data []float32, root int) ([][]float32, error) {
	return c.gather(fzCodec{c: c, r: r}, r, data, root)
}

func (c Collectives) gather(cd codec, r *cluster.Rank, data []float32, root int) ([][]float32, error) {
	own, err := cd.encode(data)
	if err != nil {
		return nil, err
	}
	payloads, err := c.gatherBytes(r, own, root)
	if err != nil || payloads == nil {
		return nil, err
	}
	return decodeEach(cd, r.ID, data, payloads)
}

// gatherBytes funnels one payload per rank to the root along a binomial
// tree (children fold their subtree's payloads into the parent). Returns
// payloads indexed by origin rank at the root, nil elsewhere.
func (c Collectives) gatherBytes(r *cluster.Rank, own []byte, root int) ([][]byte, error) {
	n := r.N
	if root < 0 || root >= n {
		return nil, fmt.Errorf("core: gather root %d out of range", root)
	}
	collected := map[int][]byte{r.ID: own}
	if n > 1 {
		v := vrank(r.ID, root, n)
		// Receive from children (low bits below our lowest set bit).
		for mask := 1; mask < n; mask <<= 1 {
			if mask >= lowbitFloor(v) {
				break
			}
			child := v | mask
			if child >= n {
				continue
			}
			blob, err := r.Recv(unvrank(child, root, n))
			if err != nil {
				return nil, err
			}
			if err := decodeGatherBlob(blob, n, collected); err != nil {
				return nil, err
			}
		}
		// Send the folded subtree to the parent.
		if v != 0 {
			parent := v & (v - 1)
			if err := r.Send(unvrank(parent, root, n), encodeGatherBlob(collected)); err != nil {
				return nil, err
			}
			return nil, nil
		}
	}
	if len(collected) != n {
		return nil, fmt.Errorf("%w: gather collected %d of %d origins", ErrBadFrame, len(collected), n)
	}
	out := make([][]byte, n)
	for origin, p := range collected {
		out[origin] = p
	}
	return out, nil
}

// encodeGatherBlob packs {origin, payload} pairs into one message.
func encodeGatherBlob(m map[int][]byte) []byte {
	size := 4
	for _, p := range m {
		size += 8 + len(p)
	}
	out := make([]byte, 0, size)
	out = appendU32(out, uint32(len(m)))
	for origin, p := range m {
		out = appendU32(out, uint32(origin))
		out = appendU32(out, uint32(len(p)))
		out = append(out, p...)
	}
	return out
}

// decodeGatherBlob unpacks an encodeGatherBlob message from a subtree of
// an n-rank gather into into. Every origin must be a rank of the group not
// already collected, and the entries must account for the bytes exactly.
func decodeGatherBlob(blob []byte, n int, into map[int][]byte) error {
	if len(blob) < 4 {
		return fmt.Errorf("%w: short gather blob", ErrBadFrame)
	}
	count := int(readU32(blob))
	o := 4
	for k := 0; k < count; k++ {
		if len(blob) < o+8 {
			return fmt.Errorf("%w: gather blob count %d disagrees with its %d bytes", ErrBadFrame, count, len(blob))
		}
		origin := int(readU32(blob[o:]))
		plen := int(readU32(blob[o+4:]))
		o += 8
		if origin >= n {
			return fmt.Errorf("%w: gather origin %d out of range for %d ranks", ErrBadFrame, origin, n)
		}
		if _, dup := into[origin]; dup {
			return fmt.Errorf("%w: duplicate gather origin %d", ErrBadFrame, origin)
		}
		if plen > len(blob)-o {
			return fmt.Errorf("%w: truncated gather payload", ErrBadFrame)
		}
		into[origin] = blob[o : o+plen]
		o += plen
	}
	if o != len(blob) {
		return fmt.Errorf("%w: gather blob count %d disagrees with its %d bytes", ErrBadFrame, count, len(blob))
	}
	return nil
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func readU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// AllgatherPlain gives every rank every other rank's data (rank-indexed).
func (c Collectives) AllgatherPlain(r *cluster.Rank, data []float32) ([][]float32, error) {
	return c.allgather(rawCodec{}, r, data)
}

// AllgatherCompressed is the C-Coll allgather: compress once, ring the
// compressed bytes, decompress N−1 received chunks.
func (c Collectives) AllgatherCompressed(r *cluster.Rank, data []float32) ([][]float32, error) {
	return c.allgather(fzCodec{c: c, r: r}, r, data)
}

func (c Collectives) allgather(cd codec, r *cluster.Rank, data []float32) ([][]float32, error) {
	own, err := cd.encode(data)
	if err != nil {
		return nil, err
	}
	gathered, err := allgatherBytes(world(r), own, cd.compressed())
	if err != nil {
		return nil, err
	}
	return decodeEach(cd, r.ID, data, gathered)
}

// ReducePlain sums data across ranks at the root via a binomial tree of
// raw partial sums. Only the root receives a non-nil result.
func (c Collectives) ReducePlain(r *cluster.Rank, data []float32, root int) ([]float32, error) {
	return c.reduce(r, c.reducer(Plain, r, data, 1, false, sized), root)
}

// ReduceHZ is the homomorphic rooted reduce: each rank compresses once,
// partial sums combine in compressed form at every tree level (HPR), and
// only the root decompresses — the rooted analogue of the paper's
// Reduce_scatter co-design, cost CPR + log2(N)·HPR + 1·DPR on the
// critical path.
func (c Collectives) ReduceHZ(r *cluster.Rank, data []float32, root int) ([]float32, *hzdyn.Stats, error) {
	red := c.reducer(HZ, r, data, 1, false, sized).(*hzReducer)
	out, err := c.reduce(r, red, root)
	if err != nil {
		return nil, nil, err
	}
	return out, &red.stats, nil
}

// reduce runs the binomial-tree reduce over the whole vector as one
// reducer block: each rank accumulates its children's partials, then
// hands its own to the parent; the root returns the reduced value.
func (c Collectives) reduce(r *cluster.Rank, red reducer, root int) ([]float32, error) {
	defer red.release()
	n := r.N
	if root < 0 || root >= n {
		return nil, fmt.Errorf("core: reduce root %d out of range", root)
	}
	if err := red.primeRest(); err != nil {
		return nil, err
	}
	v := vrank(r.ID, root, n)
	for mask := 1; mask < n; mask <<= 1 {
		if mask >= lowbitFloor(v) {
			break
		}
		child := v | mask
		if child >= n {
			continue
		}
		got, err := r.Recv(unvrank(child, root, n))
		if err != nil {
			return nil, err
		}
		if err := red.accumulate(0, 1, got); err != nil {
			return nil, err
		}
	}
	if v != 0 {
		payload, err := red.wire(0, 1)
		if err != nil {
			return nil, err
		}
		err = r.Send(unvrank(v&(v-1), root, n), payload)
		red.handoff(0, 1, payload)
		return nil, err
	}
	return red.block(0)
}

// AlltoallPlain performs the personalized exchange: rank i's block j goes
// to rank j. data must contain N equal blocks (BlockBounds layout);
// returns the N received blocks indexed by source rank.
func (c Collectives) AlltoallPlain(r *cluster.Rank, data []float32) ([][]float32, error) {
	return c.alltoall(rawCodec{}, r, data)
}

// AlltoallCompressed compresses each outgoing block (the online-compression
// point-to-point design the paper's related work covers).
func (c Collectives) AlltoallCompressed(r *cluster.Rank, data []float32) ([][]float32, error) {
	return c.alltoall(fzCodec{c: c, r: r}, r, data)
}

func (c Collectives) alltoall(cd codec, r *cluster.Rank, data []float32) ([][]float32, error) {
	n := r.N
	out := make([][]float32, n)
	s, e := BlockBounds(len(data), n, r.ID)
	out[r.ID] = clone(data[s:e])
	// Pairwise exchange schedule: in round k, send to rank+k and receive
	// from rank−k (mod n), which covers non-power-of-two worlds.
	for k := 1; k < n; k++ {
		to := (r.ID + k) % n
		from := (r.ID - k + n) % n
		bs, be := BlockBounds(len(data), n, to)
		payload, err := cd.encode(data[bs:be])
		if err != nil {
			return nil, err
		}
		got, err := world(r).sendRecv(to, payload, from, cd.compressed())
		if err != nil {
			return nil, err
		}
		if out[from], err = decodeNew(cd, got); err != nil {
			return nil, err
		}
	}
	return out, nil
}
