package fzlight

import "fmt"

// 2D support (format version 2). The paper's future work calls for
// tailoring the compression to application data characteristics; for
// image-like fields (CESM-ATM slices, stacked exposures) the 1D delta
// leaves vertical structure on the table. Version-2 containers use the 2D
// Lorenzo predictor
//
//	r(i,j) = q(i,j) − q(i,j−1) − q(i−1,j) + q(i−1,j−1)
//
// which — like the 1D delta — is *linear* in the quantized values, so
// version-2 streams remain additively homomorphic: hzdyn.Add works on
// them unchanged, block by block, and Decompress(Add(a,b)) still equals
// Decompress(a)+Decompress(b) exactly in the quantized domain.
//
// Chunks partition rows (each chunk is a contiguous band of rows,
// predicted independently), so multi-threaded compression, parallel
// decompression and per-chunk homomorphic reduction all carry over. A
// band is coded as a single plane of the 3D Lorenzo chunk coder, whose
// first plane is exactly this 2D stencil.

// Compress2D compresses a row-major height×width field with the 2D
// Lorenzo predictor. p.Threads partitions rows.
func Compress2D(data []float32, height, width int, p Params) ([]byte, error) {
	if height < 0 || width < 0 || height*width != len(data) {
		return nil, fmt.Errorf("%w: dims %dx%d for %d values", ErrBadParams, height, width, len(data))
	}
	return compressAny(data, p, func(p Params) HeaderLite {
		h := p.header(2, len(data), height)
		h.Width = max(width, 1) // an empty field keeps the header valid
		return h
	})
}
