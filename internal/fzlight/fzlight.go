// Package fzlight implements the fZ-light error-bounded lossy compressor
// for float32 scientific data, the CPU-optimized compressor the hZCCL paper
// builds its homomorphic pipeline on.
//
// Design (paper §III-B2, §III-B3):
//
//   - Multi-layer block partitioning: the input is split into one large
//     contiguous chunk per thread; each chunk is subdivided into small
//     blocks of BlockSize elements. Threads always walk contiguous memory.
//   - Fused quantization + prediction: each float is quantized to
//     q = round(v / (2·eb)) and immediately delta-predicted against the
//     previous quantized value in the same chunk, in a single pass.
//   - A single 4-byte outlier per chunk: the first quantized value of the
//     chunk is stored raw; its delta slot is forced to zero so the first
//     block's code length is not inflated.
//   - Ultra-fast fixed-length encoding: per small block, a 1-byte code
//     length, packed sign bits, complete byte planes, then the residual
//     bits packed with the specialized bit-shifting routines in bitio.
//
// The format is additively homomorphic: quantized deltas and outliers are
// linear in the input, so two compressed streams with identical geometry
// can be summed block-by-block without decompression (package hzdyn).
package fzlight

import (
	"errors"
	"fmt"
	"math"

	"hzccl/internal/bufpool"
)

// DefaultBlockSize is the small-block length used when Params.BlockSize is
// zero. 32 elements keeps the per-block marker overhead at 1/128 of the raw
// size and lets every block use the fast (multiple-of-8) packing paths.
const DefaultBlockSize = 32

// quantLimit bounds |v|/(2·eb). Keeping quantized values below 2^29
// guarantees chunk-internal deltas fit in 31 bits and one homomorphic
// addition cannot overflow int32 magnitudes mid-stream.
const quantLimit = 1 << 29

// Errors returned by the codec.
var (
	ErrBadParams   = errors.New("fzlight: invalid parameters")
	ErrRange       = errors.New("fzlight: value exceeds quantization range (decrease precision or scale data)")
	ErrCorrupt     = errors.New("fzlight: corrupt or truncated stream")
	ErrBadMagic    = errors.New("fzlight: not an fZ-light stream")
	ErrBadVersion  = errors.New("fzlight: unsupported stream version")
	ErrNonFinite   = errors.New("fzlight: input contains NaN or Inf")
	ErrShortOutput = errors.New("fzlight: output buffer too small")
)

// Params configures compression.
type Params struct {
	// ErrorBound is the absolute error bound eb: every reconstructed value
	// differs from the original by at most eb. Must be > 0.
	ErrorBound float64
	// BlockSize is the small-block length. 0 selects DefaultBlockSize.
	// Multiples of 8 use the fast packing paths.
	BlockSize int
	// Threads is the number of chunks the input is partitioned into, each
	// compressed by its own goroutine. 0 and 1 select sequential operation
	// with a single chunk.
	Threads int
}

func (p Params) withDefaults() Params {
	if p.BlockSize == 0 {
		p.BlockSize = DefaultBlockSize
	}
	if p.Threads <= 0 {
		p.Threads = 1
	}
	return p
}

func (p Params) validate() error {
	if !(p.ErrorBound > 0) || math.IsInf(p.ErrorBound, 0) {
		return fmt.Errorf("%w: ErrorBound must be a positive finite number, got %v", ErrBadParams, p.ErrorBound)
	}
	if p.BlockSize < 1 {
		return fmt.Errorf("%w: BlockSize must be >= 1, got %d", ErrBadParams, p.BlockSize)
	}
	if p.Threads < 1 {
		return fmt.Errorf("%w: Threads must be >= 1, got %d", ErrBadParams, p.Threads)
	}
	return nil
}

// ChunkBounds returns the [start, end) element range of chunk i when
// dataLen elements are partitioned into numChunks chunks. The first
// dataLen%numChunks chunks get one extra element, so chunk lengths differ
// by at most one and every chunk is contiguous (paper: thread t processes
// one chunk of length ~D/N).
func ChunkBounds(dataLen, numChunks, i int) (start, end int) {
	base := dataLen / numChunks
	extra := dataLen % numChunks
	if i < extra {
		start = i * (base + 1)
		end = start + base + 1
		return
	}
	start = extra*(base+1) + (i-extra)*base
	end = start + base
	return
}

// worstChunkBytes bounds the compressed size of a chunk of n elements with
// block size B: 4 outlier bytes plus, per block, 1 marker byte, sign bytes,
// and at most 4 bytes per value of planes+remainder.
func worstChunkBytes(n, B int) int {
	if n == 0 {
		return 4
	}
	nblocks := (n + B - 1) / B
	return 4 + nblocks*(1+(B+7)/8+8) + 4*n
}

// Compress compresses float32 data under the given parameters and returns
// a self-describing fZ-light container.
func Compress(data []float32, p Params) ([]byte, error) {
	return compressAny(data, p, func(p Params) HeaderLite { return p.header1D(len(data), false) })
}

// Compress64 compresses float64 data. The container records the source
// precision; decode it with Decompress64/DecompressInto64. Containers of
// either precision are mutually homomorphic only with their own kind (the
// geometry check includes the element type).
func Compress64(data []float64, p Params) ([]byte, error) {
	return compressAny(data, p, func(p Params) HeaderLite { return p.header1D(len(data), true) })
}

// compressAny validates p, then compresses data into an exact-sized
// container with the geometry geom derives from the defaulted p.
func compressAny[T Float](data []T, p Params, geom func(Params) HeaderLite) ([]byte, error) {
	p = p.withDefaults()
	if err := p.validate(); err != nil {
		return nil, err
	}
	h := geom(p)
	buf := bufpool.Bytes(h.Bound())
	n, err := compressInto(buf, data, h)
	if err != nil {
		bufpool.PutBytes(buf)
		return nil, err
	}
	out := make([]byte, n)
	copy(out, buf[:n])
	bufpool.PutBytes(buf)
	return out, nil
}

// header is the geometry of compressing n elements under p into a
// container of the given version whose chunks partition units rows or
// planes: Params.Threads chunks, clamped so no chunk is empty.
func (p Params) header(version, n, units int) HeaderLite {
	nc := min(p.Threads, units)
	if nc < 1 {
		nc = 1
	}
	return HeaderLite{
		ErrorBound: p.ErrorBound,
		BlockSize:  p.BlockSize,
		NumChunks:  nc,
		DataLen:    n,
		Version:    version,
	}
}

// header1D is the version-1 geometry of n elements.
func (p Params) header1D(n int, wide bool) HeaderLite {
	h := p.header(1, n, n)
	h.Float64 = wide
	return h
}

// CompressBound returns the smallest dst length guaranteed to be
// sufficient for CompressInto of n elements under p (header plus the
// worst-case encoding of every chunk).
func CompressBound(n int, p Params) int {
	return p.withDefaults().header1D(n, false).Bound()
}

// CompressInto compresses float32 data into dst, which must hold at least
// CompressBound(len(data), p) bytes, and returns the container size. It is
// the reusable-buffer form of Compress: with a single chunk (the
// collectives' configuration) the steady state performs zero heap
// allocations — the chunk encodes directly into dst behind an
// inline-written header, and the per-block scratch comes from bufpool.
func CompressInto(dst []byte, data []float32, p Params) (int, error) {
	return compressIntoAny(dst, data, p, false)
}

// CompressInto64 is CompressInto for float64 data (see Compress64).
func CompressInto64(dst []byte, data []float64, p Params) (int, error) {
	return compressIntoAny(dst, data, p, true)
}

func compressIntoAny[T Float](dst []byte, data []T, p Params, wide bool) (int, error) {
	p = p.withDefaults()
	if err := p.validate(); err != nil {
		return 0, err
	}
	h := p.header1D(len(data), wide)
	if need := h.Bound(); len(dst) < need {
		return 0, fmt.Errorf("%w: CompressInto needs %d bytes, got %d", ErrShortOutput, need, len(dst))
	}
	return compressInto(dst, data, h)
}

// compressInto writes the container h describes, holding data, into dst
// (at least h.Bound() bytes) and returns its size.
func compressInto[T Float](dst []byte, data []T, h HeaderLite) (int, error) {
	recip := 1 / (2 * h.ErrorBound)
	hdr := h.PayloadStart()
	var n int
	var err error
	if h.NumChunks == 1 {
		sp := mChunkEncodeNS.Start()
		n, err = encodeChunk(h, dst[hdr:], data, recip)
		sp.End()
		if err == nil {
			h.Marshal(dst)
			h.PutChunkSize(dst, 0, n)
			n += hdr
		}
	} else {
		n, err = WriteChunks(dst, h, nil, func(i int, out []byte) (int, error) {
			s, e := h.ElemRange(i)
			sp := mChunkEncodeNS.Start()
			defer sp.End()
			return encodeChunk(h, out, data[s:e], recip)
		})
	}
	if err != nil {
		mCompressErrs.Inc()
		return 0, err
	}
	mCompressCalls.Inc()
	mCompressRaw.Add(int64(len(data) * elemBytes(h.Float64)))
	mCompressOut.Add(int64(n))
	mCompressOutlier.Add(int64(h.NumChunks)) // one raw outlier per chunk
	return n, nil
}

// encodeChunk encodes one chunk of a container with h's geometry.
func encodeChunk[T Float](h HeaderLite, dst []byte, data []T, recip float64) (int, error) {
	if h.Version == 1 {
		return compressChunk(dst, data, recip, h.BlockSize)
	}
	return compressChunkLorenzo(dst, data, h.Width, h.planeHeight(len(data)), recip, h.BlockSize)
}

// decodeChunk decodes one chunk of a container with h's geometry.
func decodeChunk[T Float](h HeaderLite, src []byte, dst []T, eb2 float64) error {
	if h.Version == 1 {
		return decompressChunk(src, dst, eb2, h.BlockSize)
	}
	return decompressChunkLorenzo(src, dst, h.Width, h.planeHeight(len(dst)), eb2, h.BlockSize)
}

// planeHeight is the plane height a 2D/3D chunk of n elements is coded
// with: a 2D band of rows is a single plane.
func (h HeaderLite) planeHeight(n int) int {
	if h.Version == 2 {
		return n / h.Width
	}
	return h.Height
}

// compressChunk writes one chunk (outlier + encoded blocks) into dst and
// returns the number of bytes written. This is the fused
// quantization+prediction+encoding loop of the paper: full 32-element
// blocks go through the branchless encodeBlock32 path; the first block
// (which hosts the chunk outlier) and tail/odd-sized blocks use the
// generic path.
func compressChunk[T Float](dst []byte, data []T, recip float64, B int) (int, error) {
	putInt32(dst, 0) // outlier placeholder
	o := 4
	if len(data) == 0 {
		return o, nil
	}
	pbuf := bufpool.Int32s(B)
	mbuf := bufpool.Uint32s(B)
	defer bufpool.PutInt32s(pbuf)
	defer bufpool.PutUint32s(mbuf)
	var mscratch [32]uint32
	var qprev int32
	first := true
	var outlier int32

	for base := 0; base < len(data); base += B {
		end := base + B
		if end > len(data) {
			end = len(data)
		}
		blk := data[base:end]
		var used int
		var err error
		if len(blk) == 32 && base > 0 {
			used, err = encodeBlock32(dst[o:], blk, recip, &qprev, &mscratch)
		} else {
			used, err = encodeBlockGeneric(dst[o:], blk, recip, &qprev, &first, &outlier, pbuf, mbuf)
		}
		if err != nil {
			return 0, err
		}
		o += used
	}
	putInt32(dst, outlier)
	return o, nil
}

// Decompress decodes a float32 container produced by Compress (or by a
// homomorphic reduction of such containers) and returns the reconstructed
// values. Use Decompress64 for containers produced by Compress64.
func Decompress(comp []byte) ([]float32, error) {
	h, err := ParseHeaderLite(comp)
	if err != nil {
		return nil, err
	}
	out := make([]float32, h.DataLen)
	if err := DecompressInto(comp, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Decompress64 decodes a float64 container produced by Compress64.
func Decompress64(comp []byte) ([]float64, error) {
	h, err := ParseHeaderLite(comp)
	if err != nil {
		return nil, err
	}
	out := make([]float64, h.DataLen)
	if err := DecompressInto64(comp, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ErrWrongPrecision is returned when a container's source precision does
// not match the requested decode type.
var ErrWrongPrecision = errors.New("fzlight: container precision does not match decode type")

// DecompressInto decodes comp into dst, which must hold at least
// Header.DataLen elements.
func DecompressInto(comp []byte, dst []float32) error {
	return decompressInto(comp, dst, false)
}

// DecompressInto64 decodes a float64 container into dst.
func DecompressInto64(comp []byte, dst []float64) error {
	return decompressInto(comp, dst, true)
}

func decompressInto[T Float](comp []byte, dst []T, wide bool) error {
	h, err := ParseHeaderLite(comp)
	if err != nil {
		return err
	}
	if h.Float64 != wide {
		return ErrWrongPrecision
	}
	if len(dst) < h.DataLen {
		return ErrShortOutput
	}
	eb2 := 2 * h.ErrorBound
	if h.NumChunks == 1 {
		hdr := h.PayloadStart()
		sp := mChunkDecodeNS.Start()
		err = decodeChunk(h, comp[hdr:], dst[:h.DataLen], eb2)
		sp.End()
	} else {
		offs := h.Offsets(comp)
		errs := make([]error, h.NumChunks)
		forEachChunk(h.NumChunks, func(i int) {
			s, e := h.ElemRange(i)
			sp := mChunkDecodeNS.Start()
			errs[i] = decodeChunk(h, comp[offs[i]:offs[i+1]], dst[s:e], eb2)
			sp.End()
		})
		err = firstErr(errs)
	}
	if err != nil {
		mDecompressErrs.Inc()
		return err
	}
	mDecompressCalls.Inc()
	mDecompressRaw.Add(int64(h.DataLen * elemBytes(h.Float64)))
	mDecompressIn.Add(int64(len(comp)))
	return nil
}

func decompressChunk[T Float](src []byte, dst []T, eb2 float64, B int) error {
	if len(src) < 4 {
		return ErrCorrupt
	}
	acc := getInt32(src)
	o := 4
	pbuf := bufpool.Int32s(B)
	mbuf := bufpool.Uint32s(B)
	defer bufpool.PutInt32s(pbuf)
	defer bufpool.PutUint32s(mbuf)
	var mscratch [32]uint32
	for base := 0; base < len(dst); base += B {
		end := base + B
		if end > len(dst) {
			end = len(dst)
		}
		n := end - base
		if n == 32 {
			used, err := decodeBlock32(src[o:], dst[base:end], &acc, eb2, &mscratch)
			if err != nil {
				return err
			}
			o += used
			continue
		}
		used, err := DecodeBlock(src[o:], pbuf[:n], mbuf)
		if err != nil {
			return err
		}
		o += used
		blk := dst[base:end]
		for i := 0; i < n; i++ {
			acc += pbuf[i]
			blk[i] = T(eb2 * float64(acc))
		}
	}
	if o != len(src) {
		return fmt.Errorf("%w: %d trailing bytes in chunk", ErrCorrupt, len(src)-o)
	}
	return nil
}

func putInt32(b []byte, v int32) {
	u := uint32(v)
	b[0] = byte(u)
	b[1] = byte(u >> 8)
	b[2] = byte(u >> 16)
	b[3] = byte(u >> 24)
}

func getInt32(b []byte) int32 {
	return int32(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)
}
