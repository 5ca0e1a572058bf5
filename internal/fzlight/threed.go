package fzlight

import (
	"fmt"
	"math"
)

// 3D support (format version 3). The paper's application data is
// three-dimensional (RTM 449×449×235, NYX 512³, Hurricane 100×500×500);
// the 3D Lorenzo predictor
//
//	r(z,y,x) = q(z,y,x) − q(z,y,x−1) − q(z,y−1,x) + q(z,y−1,x−1)
//	           − q(z−1,y,x) + q(z−1,y,x−1) + q(z−1,y−1,x) − q(z−1,y−1,x−1)
//
// is, like its 1D and 2D relatives, linear in the quantized values, so
// version-3 containers remain additively homomorphic and hzdyn operates on
// them unchanged. Chunks partition z-planes; the first plane of each chunk
// falls back to the 2D stencil, its first row to the 1D delta. The same
// chunk coder codes the single-plane bands of version-2 containers.

// Compress3D compresses a depth×height×width field (x fastest) with the
// 3D Lorenzo predictor. p.Threads partitions z-planes.
func Compress3D(data []float32, depth, height, width int, p Params) ([]byte, error) {
	if depth < 0 || height < 0 || width < 0 || depth*height*width != len(data) {
		return nil, fmt.Errorf("%w: dims %dx%dx%d for %d values", ErrBadParams, depth, height, width, len(data))
	}
	return compressAny(data, p, func(p Params) HeaderLite {
		h := p.header(3, len(data), depth)
		h.Width, h.Height = max(width, 1), max(height, 1) // an empty volume keeps the header valid
		return h
	})
}

// lorenzoResiduals3D computes the residual stream of a z-band in place.
func lorenzoResiduals3D(q []int32, width, height int) []int32 {
	plane := width * height
	planes := len(q) / plane
	res := make([]int32, len(q))
	// plane 0: 2D Lorenzo (first row 1D delta with res[0]=0 for the outlier)
	for j := 1; j < width; j++ {
		res[j] = q[j] - q[j-1]
	}
	for y := 1; y < height; y++ {
		row := y * width
		prev := row - width
		res[row] = q[row] - q[prev]
		for x := 1; x < width; x++ {
			res[row+x] = q[row+x] - q[row+x-1] - q[prev+x] + q[prev+x-1]
		}
	}
	for z := 1; z < planes; z++ {
		p0 := z * plane
		pz := p0 - plane
		// corner
		res[p0] = q[p0] - q[pz]
		// first row (y=0): 2D stencil across x and z
		for x := 1; x < width; x++ {
			res[p0+x] = q[p0+x] - q[p0+x-1] - q[pz+x] + q[pz+x-1]
		}
		for y := 1; y < height; y++ {
			row := p0 + y*width
			prow := row - width
			zrow := row - plane
			zprow := zrow - width
			// first column (x=0): 2D stencil across y and z
			res[row] = q[row] - q[prow] - q[zrow] + q[zprow]
			for x := 1; x < width; x++ {
				res[row+x] = q[row+x] - q[row+x-1] - q[prow+x] + q[prow+x-1] -
					q[zrow+x] + q[zrow+x-1] + q[zprow+x] - q[zprow+x-1]
			}
		}
	}
	return res
}

// invertLorenzo3D reconstructs quantized values from residuals (the exact
// inverse of lorenzoResiduals3D given the outlier in slot 0).
func invertLorenzo3D(res []int32, outlier int32, width, height int) []int32 {
	plane := width * height
	planes := len(res) / plane
	q := make([]int32, len(res))
	q[0] = outlier
	for j := 1; j < width; j++ {
		q[j] = q[j-1] + res[j]
	}
	for y := 1; y < height; y++ {
		row := y * width
		prev := row - width
		q[row] = q[prev] + res[row]
		for x := 1; x < width; x++ {
			q[row+x] = res[row+x] + q[row+x-1] + q[prev+x] - q[prev+x-1]
		}
	}
	for z := 1; z < planes; z++ {
		p0 := z * plane
		pz := p0 - plane
		q[p0] = q[pz] + res[p0]
		for x := 1; x < width; x++ {
			q[p0+x] = res[p0+x] + q[p0+x-1] + q[pz+x] - q[pz+x-1]
		}
		for y := 1; y < height; y++ {
			row := p0 + y*width
			prow := row - width
			zrow := row - plane
			zprow := zrow - width
			q[row] = res[row] + q[prow] + q[zrow] - q[zprow]
			for x := 1; x < width; x++ {
				q[row+x] = res[row+x] + q[row+x-1] + q[prow+x] - q[prow+x-1] +
					q[zrow+x] - q[zrow+x-1] - q[zprow+x] + q[zprow+x-1]
			}
		}
	}
	return q
}

// compressChunkLorenzo encodes a band of planes: the first plane uses the
// 2D stencil (its first row the 1D delta, with the outlier in slot 0),
// later planes the 3D stencil. Residuals stream through the same block
// encoder as 1D.
func compressChunkLorenzo[T Float](dst []byte, band []T, width, height int, recip float64, B int) (int, error) {
	putInt32(dst, 0)
	o := 4
	if len(band) == 0 {
		return o, nil
	}
	q := make([]int32, len(band))
	for i, v := range band {
		x := float64(v) * recip
		if !(x > -quantLimit && x < quantLimit) {
			return 0, quantErr(x)
		}
		q[i] = int32(math.Floor(x + 0.5))
	}
	outlier := q[0]
	res := lorenzoResiduals3D(q, width, height)
	res[0] = 0

	scratch := make([]uint32, B)
	for base := 0; base < len(res); base += B {
		end := base + B
		if end > len(res) {
			end = len(res)
		}
		o += EncodeBlock(dst[o:], res[base:end], scratch)
	}
	putInt32(dst, outlier)
	return o, nil
}

// decompressChunkLorenzo reverses compressChunkLorenzo.
func decompressChunkLorenzo[T Float](src []byte, dst []T, width, height int, eb2 float64, B int) error {
	if len(src) < 4 {
		return ErrCorrupt
	}
	outlier := getInt32(src)
	o := 4
	if len(dst) == 0 {
		if o != len(src) {
			return ErrCorrupt
		}
		return nil
	}
	res := make([]int32, len(dst))
	scratch := make([]uint32, B)
	for base := 0; base < len(res); base += B {
		end := base + B
		if end > len(res) {
			end = len(res)
		}
		used, err := DecodeBlock(src[o:], res[base:end], scratch)
		if err != nil {
			return err
		}
		o += used
	}
	if o != len(src) {
		return fmt.Errorf("%w: %d trailing bytes in chunk", ErrCorrupt, len(src)-o)
	}
	q := invertLorenzo3D(res, outlier, width, height)
	for i, v := range q {
		dst[i] = T(eb2 * float64(v))
	}
	return nil
}
