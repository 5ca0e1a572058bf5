package fzlight

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// Container layout (all little-endian):
//
//	offset 0  : magic "FZL1"
//	offset 4  : version (1 = 1D delta, 2 = 2D Lorenzo, 3 = 3D Lorenzo)
//	offset 5  : flags (bit 0: float64 source; read in version 1 only)
//	offset 6  : block size (uint16)
//	offset 8  : absolute error bound (float64)
//	offset 16 : number of chunks (uint32)
//	offset 20 : element count (uint64)
//	offset 28 : row width (uint32; versions 2 and 3)
//	offset 32 : plane height (uint32; version 3)
//	then      : compressed byte size of each chunk (numChunks × uint32)
//	then      : chunk payloads, concatenated
//
// Chunks partition elements (version 1), rows (version 2) or z-planes
// (version 3); chunk i's payload follows chunk i-1's.
const (
	magic = "FZL1"
	// fixedHeader is the version-1 fixed header; width and height each
	// add 4 bytes in the later versions.
	fixedHeader = 28
)

// flagFloat64 marks a container whose source values were float64.
const flagFloat64 = 0x01

// HeaderLite is the allocation-free view of a container header of any
// version: everything the header says except the chunk-size table, which
// stays in the container bytes (ChunkSize, Offsets). Two HeaderLite values
// compare equal exactly when the containers are homomorphically
// compatible, so `ha == hb` is the geometry check.
type HeaderLite struct {
	ErrorBound float64
	BlockSize  int
	NumChunks  int
	DataLen    int
	// Version is the container format version: 1 = 1D delta, 2 = 2D
	// Lorenzo, 3 = 3D Lorenzo.
	Version int
	// Float64 records that the source data was double-precision
	// (Compress64); decode with Decompress64.
	Float64 bool
	// Width is the row length of a 2D/3D container; 0 for 1D.
	Width int
	// Height is the plane height of a 3D container; 0 otherwise.
	Height int
}

// Header is a HeaderLite plus the decoded chunk-size table. It is returned
// by ParseHeader and Info.
type Header struct {
	HeaderLite
	ChunkSizes []uint32
}

// ParseHeaderLite validates a container header of any version — the fixed
// fields and the chunk-size table, which must exactly cover the payload —
// without allocating.
func ParseHeaderLite(comp []byte) (HeaderLite, error) {
	var h HeaderLite
	if len(comp) < fixedHeader {
		return h, ErrCorrupt
	}
	if string(comp[:4]) != magic {
		return h, ErrBadMagic
	}
	h.Version = int(comp[4])
	if h.Version < 1 || h.Version > 3 {
		return HeaderLite{}, fmt.Errorf("%w: version %d", ErrBadVersion, comp[4])
	}
	fixed := h.fixedBytes()
	if len(comp) < fixed {
		return HeaderLite{}, ErrCorrupt
	}
	h.Float64 = h.Version == 1 && comp[5]&flagFloat64 != 0
	h.BlockSize = int(binary.LittleEndian.Uint16(comp[6:]))
	h.ErrorBound = math.Float64frombits(binary.LittleEndian.Uint64(comp[8:]))
	h.NumChunks = int(binary.LittleEndian.Uint32(comp[16:]))
	rawLen := binary.LittleEndian.Uint64(comp[20:])
	if h.Version >= 2 {
		h.Width = int(binary.LittleEndian.Uint32(comp[28:]))
	}
	if h.Version == 3 {
		h.Height = int(binary.LittleEndian.Uint32(comp[32:]))
	}
	// unit ≤ 0 covers a zero width or height and a width×height plane
	// that overflows int.
	unit := h.unit()
	if h.BlockSize < 1 || h.NumChunks < 1 || unit <= 0 || !(h.ErrorBound > 0) {
		return HeaderLite{}, ErrCorrupt
	}
	// Containers arrive from the network: every size field is untrusted.
	// Each chunk costs at least 4 outlier bytes and each block at least
	// one marker byte, so the payload bounds both the chunk count and the
	// element count; reject anything a well-formed container cannot hold
	// before any allocation is sized from it.
	payload := uint64(len(comp) - fixed)
	if uint64(h.NumChunks) > payload/8 || rawLen > payload*uint64(h.BlockSize) {
		return HeaderLite{}, ErrCorrupt
	}
	h.DataLen = int(rawLen)
	if h.DataLen%unit != 0 || h.DataLen > 0 && h.NumChunks > h.DataLen/unit {
		return HeaderLite{}, ErrCorrupt
	}
	if len(comp) < h.PayloadStart() {
		return HeaderLite{}, ErrCorrupt
	}
	o := h.PayloadStart()
	for i := 0; i < h.NumChunks; i++ {
		o += h.ChunkSize(comp, i)
		if o > len(comp) {
			return HeaderLite{}, ErrCorrupt
		}
	}
	if o != len(comp) {
		return HeaderLite{}, fmt.Errorf("%w: container size %d, chunks end at %d", ErrCorrupt, len(comp), o)
	}
	return h, nil
}

// ParseHeader validates a container header (see ParseHeaderLite) and
// decodes its chunk-size table.
func ParseHeader(comp []byte) (*Header, error) {
	v, err := ParseHeaderLite(comp)
	if err != nil {
		return nil, err
	}
	h := &Header{HeaderLite: v, ChunkSizes: make([]uint32, v.NumChunks)}
	for i := range h.ChunkSizes {
		h.ChunkSizes[i] = uint32(v.ChunkSize(comp, i))
	}
	return h, nil
}

// Info is an alias for ParseHeader, provided for API clarity.
func Info(comp []byte) (*Header, error) { return ParseHeader(comp) }

func (h HeaderLite) fixedBytes() int { return fixedHeader + 4*(h.Version-1) }

// unit is the element count of one partition step: an element, a row or
// a plane.
func (h HeaderLite) unit() int {
	switch h.Version {
	case 3:
		return h.Width * h.Height
	case 2:
		return h.Width
	}
	return 1
}

// PayloadStart returns the offset of the first chunk payload.
func (h HeaderLite) PayloadStart() int { return h.fixedBytes() + 4*h.NumChunks }

// ChunkSize reads chunk i's payload size from the container's size table.
func (h HeaderLite) ChunkSize(comp []byte, i int) int {
	return int(binary.LittleEndian.Uint32(comp[h.fixedBytes()+4*i:]))
}

// Offsets returns NumChunks+1 byte offsets into comp, a container that
// passed ParseHeaderLite: chunk i occupies comp[offs[i]:offs[i+1]].
func (h HeaderLite) Offsets(comp []byte) []int {
	offs := make([]int, h.NumChunks+1)
	offs[0] = h.PayloadStart()
	for i := 0; i < h.NumChunks; i++ {
		offs[i+1] = offs[i] + h.ChunkSize(comp, i)
	}
	return offs
}

// ElemRange returns the [start, end) element range of chunk i: an element
// partition in version 1, a band of rows in version 2 and a band of
// z-planes in version 3.
func (h HeaderLite) ElemRange(i int) (start, end int) {
	unit := h.unit()
	s, e := ChunkBounds(h.DataLen/unit, h.NumChunks, i)
	return s * unit, e * unit
}

// chunkBound is the worst-case encoded size of chunk i.
func (h HeaderLite) chunkBound(i int) int {
	s, e := h.ElemRange(i)
	return worstChunkBytes(e-s, h.BlockSize)
}

// Bound returns the worst-case size of a container with h's geometry: the
// header plus the worst-case encoding of every chunk.
func (h HeaderLite) Bound() int {
	total := h.PayloadStart()
	for i := 0; i < h.NumChunks; i++ {
		total += h.chunkBound(i)
	}
	return total
}

// Marshal writes the fixed header fields into dst; the size table is
// filled separately with PutChunkSize as payload sizes become known.
func (h HeaderLite) Marshal(dst []byte) {
	copy(dst, magic)
	dst[4] = byte(h.Version)
	dst[5] = 0
	if h.Float64 {
		dst[5] = flagFloat64
	}
	binary.LittleEndian.PutUint16(dst[6:], uint16(h.BlockSize))
	binary.LittleEndian.PutUint64(dst[8:], math.Float64bits(h.ErrorBound))
	binary.LittleEndian.PutUint32(dst[16:], uint32(h.NumChunks))
	binary.LittleEndian.PutUint64(dst[20:], uint64(h.DataLen))
	if h.Version >= 2 {
		binary.LittleEndian.PutUint32(dst[28:], uint32(h.Width))
	}
	if h.Version == 3 {
		binary.LittleEndian.PutUint32(dst[32:], uint32(h.Height))
	}
}

// PutChunkSize records chunk i's payload size in dst's size table.
func (h HeaderLite) PutChunkSize(dst []byte, i, size int) {
	binary.LittleEndian.PutUint32(dst[h.fixedBytes()+4*i:], uint32(size))
}

// WriteChunks writes a container with h's geometry into dst and returns
// its size. put encodes chunk i into out, its slot of dst, and returns the
// bytes written; a slot holds slot(i) bytes, or chunk i's worst-case
// encoding when slot is nil. The chunks are produced concurrently, then
// compacted left so they abut, and the header and size table are written.
// The first error by chunk index is returned. Single-chunk hot paths call
// their chunk coder directly instead: put escapes to the heap.
func WriteChunks(dst []byte, h HeaderLite, slot func(i int) int, put func(i int, out []byte) (int, error)) (int, error) {
	nc := h.NumChunks
	offs := make([]int, 2*nc+1) // nc+1 slot offsets, then nc sizes
	sizes := offs[nc+1:]
	errs := make([]error, nc)
	offs[0] = h.PayloadStart()
	for i := 0; i < nc; i++ {
		n := h.chunkBound(i)
		if slot != nil {
			n = slot(i)
		}
		offs[i+1] = offs[i] + n
	}
	if len(dst) < offs[nc] {
		return 0, ErrShortOutput
	}
	forEachChunk(nc, func(i int) {
		sizes[i], errs[i] = put(i, dst[offs[i]:offs[i+1]])
	})
	if err := firstErr(errs); err != nil {
		return 0, err
	}
	h.Marshal(dst)
	o := offs[0]
	for i, n := range sizes {
		// copy is a memmove, safe for the overlapping forward shift.
		o += copy(dst[o:], dst[offs[i]:offs[i]+n])
		h.PutChunkSize(dst, i, n)
	}
	return o, nil
}

// forEachChunk runs fn for chunks 0..n-1, one goroutine per chunk beyond
// the first, and returns when all are done.
func forEachChunk(n int, fn func(i int)) {
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for i := 1; i < n; i++ {
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	fn(0)
	wg.Wait()
}

// firstErr returns the first non-nil error of errs.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// SameGeometry reports whether two headers describe streams that can be
// reduced homomorphically: identical error bound, block size, chunk count,
// element count, version, precision and dimensions.
func SameGeometry(a, b *Header) bool { return a.HeaderLite == b.HeaderLite }

// StreamStats summarizes the block structure of a compressed stream. The
// constant-block fraction predicts which homomorphic pipelines hZ-dynamic
// will select (paper Table V).
type StreamStats struct {
	Blocks         int
	ConstantBlocks int
	CodeLenHist    [33]int
	PayloadBytes   int
}

// ConstantFraction returns the fraction of blocks with code length zero.
func (s StreamStats) ConstantFraction() float64 {
	if s.Blocks == 0 {
		return 0
	}
	return float64(s.ConstantBlocks) / float64(s.Blocks)
}

// Stats walks a compressed stream and returns its block statistics.
func Stats(comp []byte) (StreamStats, error) {
	var st StreamStats
	h, err := ParseHeaderLite(comp)
	if err != nil {
		return st, err
	}
	offs := h.Offsets(comp)
	for i := 0; i < h.NumChunks; i++ {
		start, end := h.ElemRange(i)
		src := comp[offs[i]:offs[i+1]]
		if len(src) < 4 {
			return st, ErrCorrupt
		}
		o := 4
		for base := start; base < end; base += h.BlockSize {
			n := h.BlockSize
			if base+n > end {
				n = end - base
			}
			size, err := BlockBytes(src[o:], n)
			if err != nil {
				return st, err
			}
			c := int(src[o])
			st.Blocks++
			st.CodeLenHist[c]++
			if c == 0 {
				st.ConstantBlocks++
			}
			st.PayloadBytes += size
			o += size
		}
	}
	return st, nil
}
