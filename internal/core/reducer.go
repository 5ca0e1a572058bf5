package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"hzccl/internal/bufpool"
	"hzccl/internal/cluster"
	"hzccl/internal/floatbytes"
	"hzccl/internal/fzlight"
	"hzccl/internal/hzdyn"
)

// ErrSizeMismatch reports a payload whose element count differs from the
// block it should fill — the ranks passed inputs of different lengths.
var ErrSizeMismatch = errors.New("core: size mismatch")

// ErrBadFrame reports a multi-payload message (a block-set frame or a
// gather blob) whose structure is inconsistent: a count that disagrees
// with the bytes, or an entry addressed outside the group.
var ErrBadFrame = errors.New("core: malformed frame")

func sizeErr(got, want int) error {
	return fmt.Errorf("%w: %d elements, want %d", ErrSizeMismatch, got, want)
}

// part cuts a vector of n elements into nb blocks laid out by BlockBounds.
type part struct{ n, nb int }

// bounds returns the element range covered by blocks [lo,hi).
func (p part) bounds(lo, hi int) (int, int) {
	s, _ := BlockBounds(p.n, p.nb, lo)
	_, e := BlockBounds(p.n, p.nb, hi-1)
	return s, e
}

// pool says where a schedule's buffers come from. The ring recycles every
// buffer within a step, so it runs on bufpool's worst-case buffers with no
// steady-state allocation (pooled). The other schedules keep state across
// rounds and hand buffers on, so they allocate to size (sized): a
// persisting container must not pin a worst-case buffer.
type pool bool

const (
	sized  pool = false
	pooled pool = true
)

func (p pool) floats(n int) []float32 {
	if p {
		return bufpool.Float32s(n)
	}
	return make([]float32, n)
}

func (p pool) put(b []byte) {
	if p {
		bufpool.PutBytes(b)
	}
}

func (p pool) putFloats(v []float32) {
	if p {
		bufpool.PutFloat32s(v)
	}
}

// fit turns the first n bytes of a bufpool worst-case buffer into storage:
// the buffer itself when pooled, an exact copy (recycling the buffer)
// otherwise.
func (p pool) fit(buf []byte, n int) []byte {
	if p {
		return buf[:n]
	}
	out := make([]byte, n)
	copy(out, buf)
	bufpool.PutBytes(buf)
	return out
}

// ---------------------------------------------------------------------------
// Codecs: a backend's wire form for raw float32 values.
// ---------------------------------------------------------------------------

// codec encodes raw values for the wire and decodes them back, charging
// the performing rank for the work. Encoded buffers come from the codec's
// pool and belong to the caller.
type codec interface {
	// compressed labels payloads for the wire-byte telemetry split.
	compressed() bool
	encode(vals []float32) ([]byte, error)
	// count returns how many values blob holds; decode fills dst from
	// blob, failing with ErrSizeMismatch if that is not len(dst).
	count(blob []byte) (int, error)
	decode(blob []byte, dst []float32) error
	// recycle returns a dead payload to the codec's pool.
	recycle(b []byte)
	// pack puts the encoded blocks of a block range into one message and
	// unpack splits it again (p gives the range's block sizes).
	pack(blobs [][]byte) []byte
	unpack(msg []byte, p part, lo, hi int) ([][]byte, error)
}

// rawCodec moves float32 bits uncompressed (the Plain backend). Its
// conversions are plain copies with no modeled cost, so they run outside
// the cluster's compute lock; raw payloads are exactly sized already, so
// it allocates them plainly — pooling them would only hold memory.
type rawCodec struct{}

func (rawCodec) compressed() bool { return false }

func (rawCodec) encode(vals []float32) ([]byte, error) { return floatbytes.Bytes(vals), nil }

func (rawCodec) count(blob []byte) (int, error) { return len(blob) / 4, nil }

func (rawCodec) recycle([]byte) {}

func (rawCodec) decode(blob []byte, dst []float32) error {
	if len(blob) != 4*len(dst) {
		return sizeErr(len(blob)/4, len(dst))
	}
	floatbytes.ToFloat32(dst, blob)
	return nil
}

// pack concatenates: the block sizes are implied by the partition.
func (rawCodec) pack(blobs [][]byte) []byte { return bytes.Join(blobs, nil) }

func (rawCodec) unpack(msg []byte, p part, lo, hi int) ([][]byte, error) {
	s, e := p.bounds(lo, hi)
	if len(msg) != 4*(e-s) {
		return nil, sizeErr(len(msg)/4, e-s)
	}
	out := make([][]byte, hi-lo)
	for k := lo; k < hi; k++ {
		bs, be := p.bounds(k, k+1)
		out[k-lo] = msg[4*(bs-s) : 4*(be-s)]
	}
	return out, nil
}

// fzCodec moves fZ-light containers: CPR to encode, DPR to decode.
type fzCodec struct {
	c   Collectives
	r   *cluster.Rank
	mem pool
}

func (fzCodec) compressed() bool { return true }

func (cd fzCodec) encode(vals []float32) ([]byte, error) {
	params := cd.c.Opt.params()
	buf := bufpool.Bytes(fzlight.CompressBound(len(vals), params))
	var m int
	var err error
	cd.c.work(cd.r, cluster.CatCPR, 4*len(vals), func() {
		m, err = fzlight.CompressInto(buf, vals, params)
	})
	if err != nil {
		bufpool.PutBytes(buf)
		return nil, err
	}
	return cd.mem.fit(buf, m), nil
}

func (cd fzCodec) recycle(b []byte) { cd.mem.put(b) }

func (fzCodec) count(blob []byte) (int, error) {
	h, err := fzlight.ParseHeaderLite(blob)
	return h.DataLen, err
}

func (cd fzCodec) decode(blob []byte, dst []float32) error {
	if err := checkLen(blob, len(dst)); err != nil {
		return err
	}
	var err error
	cd.c.work(cd.r, cluster.CatDPR, 4*len(dst), func() {
		err = fzlight.DecompressInto(blob, dst)
	})
	return err
}

// pack frames: each container carries its own length.
func (fzCodec) pack(blobs [][]byte) []byte { return frameBlobs(blobs) }

func (fzCodec) unpack(msg []byte, _ part, lo, hi int) ([][]byte, error) {
	return unframeBlobs(msg, hi-lo)
}

// checkLen verifies that a container holds exactly want values.
func checkLen(blob []byte, want int) error {
	n, err := fzCodec{}.count(blob)
	if err == nil && n != want {
		err = sizeErr(n, want)
	}
	return err
}

// frameBlobs packs a list of byte slices into one message.
func frameBlobs(blobs [][]byte) []byte {
	size := 4
	for _, b := range blobs {
		size += 4 + len(b)
	}
	out := make([]byte, 0, size)
	out = appendU32(out, uint32(len(blobs)))
	for _, b := range blobs {
		out = appendU32(out, uint32(len(b)))
		out = append(out, b...)
	}
	return out
}

// unframeBlobs splits a frameBlobs message that must hold want blobs. The
// blobs alias msg.
func unframeBlobs(msg []byte, want int) ([][]byte, error) {
	if len(msg) < 4 {
		return nil, fmt.Errorf("%w: short blob frame", ErrBadFrame)
	}
	if count := int(readU32(msg)); count != want {
		return nil, fmt.Errorf("%w: %d framed blobs, want %d", ErrBadFrame, count, want)
	}
	out := make([][]byte, want)
	o := 4
	for k := range out {
		if len(msg) < o+4 {
			return nil, fmt.Errorf("%w: truncated blob frame", ErrBadFrame)
		}
		l := int(readU32(msg[o:]))
		o += 4
		if l > len(msg)-o {
			return nil, fmt.Errorf("%w: truncated blob payload", ErrBadFrame)
		}
		out[k] = msg[o : o+l]
		o += l
	}
	return out, nil
}

// codec returns backend b's wire form for raw values.
func (c Collectives) codec(b Backend, r *cluster.Rank, mem pool) codec {
	if b == Plain {
		return rawCodec{}
	}
	return fzCodec{c, r, mem}
}

// ---------------------------------------------------------------------------
// The reducer contract.
// ---------------------------------------------------------------------------

// reducer is one backend's reduce operator over a rank's vector cut into
// the blocks of a part. The schedules (ring, rd, Rabenseifner,
// hierarchical) are written once against it; everything that differs per
// backend — the per-block state, the wire form of a block range, how a
// received range is accumulated and charged, and how replicas are kept
// bitwise identical — lives behind it. It embeds the backend's codec,
// whose encode/decode give the canonical form of raw values.
type reducer interface {
	codec
	// prime readies block k for its first exchange; primeRest readies
	// every other block. Only hZ has work here (it compresses once).
	prime(k int) error
	primeRest() error
	// wire returns the wire form of blocks [lo,hi).
	wire(lo, hi int) ([]byte, error)
	// handoff is called once wire's payload has been sent for a range
	// this rank no longer reduces: the payload and the range's state
	// recycle.
	handoff(lo, hi int, payload []byte)
	// accumulate adds a partner's wire form of blocks [lo,hi) into the
	// state and consumes got.
	accumulate(lo, hi int, got []byte) error
	// canonical returns block k's canonical bytes — the one encoding every
	// replica decodes, forwarded verbatim by allgathers — and passes them
	// to the caller. anchor sets block k's state to the decode of such
	// bytes (a doubling exchange anchors both partners to what went on
	// the wire before adding, so they add the same two operands).
	canonical(k int) ([]byte, error)
	anchor(k int, blob []byte) error
	// block returns a fresh raw copy of block k's reduced value.
	block(k int) ([]float32, error)
	// finalWire is what a Rabenseifner unfold ships to its folded partner
	// once the vector is final (blobs are the gathered canonical blocks,
	// out their decode); finalDecode decodes it there.
	finalWire(blobs [][]byte, out []float32) []byte
	finalDecode(msg []byte, dst []float32) error
	// release recycles whatever pooled state remains.
	release()
}

// reducer returns backend b's reduce operator over data cut into nb
// blocks, with its buffers from mem. framed makes hZ frame its wire form
// even for one block: the schedules that exchange block sets set it,
// those that move single blocks do not. Plain always allocates to size,
// like its codec.
func (c Collectives) reducer(b Backend, r *cluster.Rank, data []float32, nb int, framed bool, mem pool) reducer {
	p := part{len(data), nb}
	if b == Plain {
		mem = sized
	}
	if b == HZ {
		return &hzReducer{fzCodec: fzCodec{c, r, mem}, data: data, p: p, framed: framed, first: -1, blocks: make([][]byte, nb)}
	}
	rr := &rawReducer{codec: c.codec(b, r, mem), c: c, r: r, mem: mem, p: p, acc: mem.floats(len(data))}
	copy(rr.acc, data)
	return rr
}

// ---------------------------------------------------------------------------
// Raw-domain reduction: Plain and C-Coll.
// ---------------------------------------------------------------------------

// rawReducer keeps the partial sums as raw float32 and reduces in the raw
// domain (CPT), whatever the wire carries. With the raw codec it is the
// Plain backend; with the fZ-light codec it is C-Coll's
// decompress-operate-compress: every outgoing range is compressed (CPR)
// and every incoming one decompressed (DPR) before the sum.
//
// C-Coll replication: compression is lossy, so two ranks agree bitwise
// only if they decode the same bytes. A doubling exchange therefore
// anchors each partner to the decode of what it sent before adding the
// decode of what it got (dec(sent)+dec(got) is the same sum on both
// sides, float32 addition being commutative), and allgathers forward each
// block's canonical bytes verbatim for every rank — its reducer included —
// to decode.
type rawReducer struct {
	codec
	c   Collectives
	r   *cluster.Rank
	mem pool
	p   part
	acc []float32
}

func (rr *rawReducer) prime(int) error  { return nil }
func (rr *rawReducer) primeRest() error { return nil }

func (rr *rawReducer) wire(lo, hi int) ([]byte, error) {
	s, e := rr.p.bounds(lo, hi)
	return rr.encode(rr.acc[s:e])
}

func (rr *rawReducer) handoff(_, _ int, payload []byte) { rr.mem.put(payload) }

func (rr *rawReducer) accumulate(lo, hi int, got []byte) error {
	s, e := rr.p.bounds(lo, hi)
	vals := rr.mem.floats(e - s)
	defer rr.mem.putFloats(vals)
	if err := rr.decode(got, vals); err != nil {
		return err
	}
	rr.c.work(rr.r, cluster.CatCPT, 4*(e-s), func() { addInto(rr.acc[s:e], vals) })
	rr.mem.put(got)
	return nil
}

func (rr *rawReducer) canonical(k int) ([]byte, error) { return rr.wire(k, k+1) }

// anchor decodes blob over block k; raw bytes decode to the values they
// came from, so the uncompressed codec skips it.
func (rr *rawReducer) anchor(k int, blob []byte) error {
	if !rr.compressed() {
		return nil
	}
	s, e := rr.p.bounds(k, k+1)
	return rr.decode(blob, rr.acc[s:e])
}

func (rr *rawReducer) block(k int) ([]float32, error) {
	s, e := rr.p.bounds(k, k+1)
	return clone(rr.acc[s:e]), nil
}

// finalWire ships the canonical blocks themselves, so a folded rank
// decodes the very bytes the active ranks did.
func (rr *rawReducer) finalWire(blobs [][]byte, _ []float32) []byte { return rr.pack(blobs) }

func (rr *rawReducer) finalDecode(msg []byte, dst []float32) error {
	blobs, err := rr.unpack(msg, rr.p, 0, rr.p.nb)
	if err != nil {
		return err
	}
	return decodeBlocks(rr, rr.p, blobs, dst)
}

// decodeBlocks decodes the canonical bytes of every block of p into dst.
func decodeBlocks(cd codec, p part, blobs [][]byte, dst []float32) error {
	for k, blob := range blobs {
		s, e := p.bounds(k, k+1)
		if err := cd.decode(blob, dst[s:e]); err != nil {
			return err
		}
	}
	return nil
}

func (rr *rawReducer) release() { rr.mem.putFloats(rr.acc) }

// ---------------------------------------------------------------------------
// Compressed-domain reduction: hZ.
// ---------------------------------------------------------------------------

// hzReducer keeps every block compressed: it compresses each block once
// (CPR), reduces received blocks homomorphically (HPR) and decompresses
// only when a raw value is asked for (DPR).
//
// hZ replication: the merge happens on compressed bytes and the
// homomorphic add is commutative, so both partners of a doubling exchange
// hold identical containers afterwards and every replica decodes the same
// bytes.
//
// Every block lives in a bufpool buffer that recycles the moment it is
// dead: outgoing blocks right after the send (the transport copies on
// enqueue — see cluster.Send — and the reliable layer's retransmit window
// keeps its own pristine copy), received payloads and replaced
// accumulators right after the homomorphic add consumes them.
type hzReducer struct {
	fzCodec
	data   []float32
	p      part
	framed bool
	first  int      // block primed ahead of the rest, or -1
	blocks [][]byte // compressed state; nil once handed off or passed on
	stats  hzdyn.Stats
}

func (h *hzReducer) compress(k int) error {
	s, e := h.p.bounds(k, k+1)
	params := h.c.Opt.params()
	buf := bufpool.Bytes(fzlight.CompressBound(e-s, params))
	m, err := fzlight.CompressInto(buf, h.data[s:e], params)
	if err != nil {
		bufpool.PutBytes(buf)
		return err
	}
	h.blocks[k] = h.mem.fit(buf, m)
	return nil
}

func (h *hzReducer) prime(k int) error {
	s, e := h.p.bounds(k, k+1)
	h.first = k
	var err error
	h.c.work(h.r, cluster.CatCPR, 4*(e-s), func() { err = h.compress(k) })
	return err
}

// primeRest compresses every block but the primed one under one CPR
// charge — concurrently across blocks when virtual time is modeled
// (Options.Rates), since the charge then depends only on byte counts and
// the wall-clock win is free; sequentially when compute time is measured,
// so the measurement stays single-core physical.
func (h *hzReducer) primeRest() error {
	raw := h.p.n
	if h.first >= 0 {
		s, e := h.p.bounds(h.first, h.first+1)
		raw -= e - s
	}
	errs := make([]error, h.p.nb)
	h.c.work(h.r, cluster.CatCPR, 4*raw, func() {
		if h.c.Opt.Rates == nil || h.p.nb <= 2 {
			for k := range errs {
				if k != h.first {
					errs[k] = h.compress(k)
				}
			}
			return
		}
		var wg sync.WaitGroup
		for k := range errs {
			if k == h.first {
				continue
			}
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				errs[k] = h.compress(k)
			}(k)
		}
		wg.Wait()
	})
	return errors.Join(errs...)
}

func (h *hzReducer) wire(lo, hi int) ([]byte, error) {
	if !h.framed {
		return h.blocks[lo], nil
	}
	return frameBlobs(h.blocks[lo:hi]), nil
}

func (h *hzReducer) handoff(lo, hi int, _ []byte) {
	for k := lo; k < hi; k++ {
		h.mem.put(h.blocks[k])
		h.blocks[k] = nil
	}
}

func (h *hzReducer) accumulate(lo, hi int, got []byte) error {
	blobs := [][]byte{got}
	if h.framed {
		var err error
		if blobs, err = unframeBlobs(got, hi-lo); err != nil {
			return err
		}
	}
	for i, blob := range blobs {
		if err := h.add(lo+i, blob); err != nil {
			return err
		}
	}
	h.mem.put(got)
	return nil
}

// add reduces blob into block k homomorphically.
func (h *hzReducer) add(k int, blob []byte) error {
	s, e := h.p.bounds(k, k+1)
	if err := checkLen(blob, e-s); err != nil {
		return err
	}
	cur := h.blocks[k]
	var err error
	h.c.work(h.r, cluster.CatHPR, 4*(e-s), func() {
		out := bufpool.Bytes(hzdyn.AddBound(len(cur), len(blob)))
		m, st, aerr := hzdyn.AddInto(out, cur, blob)
		if aerr != nil {
			bufpool.PutBytes(out)
			err = aerr
			return
		}
		h.mem.put(cur)
		h.blocks[k] = h.mem.fit(out, m)
		h.stats.Accumulate(st)
	})
	return err
}

// canonical passes the compressed block itself on: it already is the
// bytes every replica decodes.
func (h *hzReducer) canonical(k int) ([]byte, error) {
	blob := h.blocks[k]
	h.blocks[k] = nil
	return blob, nil
}

func (h *hzReducer) anchor(k int, blob []byte) error {
	h.blocks[k] = blob
	return nil
}

func (h *hzReducer) block(k int) ([]float32, error) {
	return decodeNew(h, h.blocks[k])
}

// finalWire ships the decoded vector: every active rank decoded the same
// containers, so the raw values are already replicated.
func (h *hzReducer) finalWire(_ [][]byte, out []float32) []byte { return floatbytes.Bytes(out) }

func (h *hzReducer) finalDecode(msg []byte, dst []float32) error {
	return rawCodec{}.decode(msg, dst)
}

func (h *hzReducer) release() {
	for _, b := range h.blocks {
		h.mem.put(b)
	}
}
