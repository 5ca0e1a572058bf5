package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sync"

	"hzccl"
)

// The output checker. Every timed operation is checked after its timing
// ends and before the next one starts:
//
//   - per-rank digests of an allreduce must be bitwise identical;
//   - every element must lie within the per-schedule tolerance of the
//     float64 reference sum of the ranks' inputs;
//   - a daemon job's digests must equal those of a standalone in-process
//     run of the same spec (see serve.go).

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// digest32 fingerprints a reduced vector: crc32c over its little-endian
// float32 bits, the format hzccl-collective and hzccl-serve print.
func digest32(v []float32) uint32 {
	var buf [4096]byte
	crc := uint32(0)
	for len(v) > 0 {
		n := min(len(v), len(buf)/4)
		for i, x := range v[:n] {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(x))
		}
		crc = crc32.Update(crc, castagnoli, buf[:4*n])
		v = v[n:]
	}
	return crc
}

func digestHex(v []float32) string { return fmt.Sprintf("%08x", digest32(v)) }

// tolerance is the conformance oracle's reference-agreement bound for one
// schedule (internal/conformance compressedTol, restated here because it
// is unexported): float32 rounding of the partial sums for MPI, plus one
// quantization per input and per reduction round for the compressed
// backends. maxIn is the largest |input| over all ranks.
func tolerance(b hzccl.Backend, algo hzccl.Algorithm, ranks int, eb, maxIn float64) float64 {
	R := float64(ranks)
	plain := (R + 1) * R * (maxIn + 1e-300) * math.Pow(2, -23)
	if b == hzccl.BackendMPI {
		return plain
	}
	extra := 0.0
	switch algo {
	case hzccl.AlgoRecursiveDoubling, hzccl.AlgoRabenseifner:
		extra = 2 * (2*math.Ceil(math.Log2(R+1)) + 4) * eb
	case hzccl.AlgoHierarchical:
		extra = 2 * 8 * eb
	}
	return 2*R*eb + extra + plain
}

// checkRank compares one rank's output with its slice of the float64
// reference and returns the worst |got − want| ÷ eb.
func checkRank(rank int, got []float32, want []float64, eb, tol float64) (float64, error) {
	if len(got) != len(want) {
		return 0, fmt.Errorf("rank %d: output has %d elements, want %d", rank, len(got), len(want))
	}
	worst, at := 0.0, -1
	for i, v := range got {
		d := math.Abs(float64(v) - want[i])
		if !(d <= worst) { // also catches NaN
			worst, at = d, i
		}
	}
	if !(worst <= tol) {
		return worst / eb, fmt.Errorf("rank %d: element %d = %g, reference %g: error %.3g exceeds tolerance %.3g",
			rank, at, got[at], want[at], worst, tol)
	}
	return worst / eb, nil
}

// checkAllreduce checks an allreduce's per-rank outputs: identical
// digests on every rank, every element within tol of ref. Ranks are
// checked in parallel. It returns the worst error over eb.
func checkAllreduce(outs [][]float32, ref []float64, eb, tol float64) (float64, error) {
	errOverEb := make([]float64, len(outs))
	errs := make([]error, len(outs))
	digests := make([]uint32, len(outs))
	var wg sync.WaitGroup
	for r, out := range outs {
		wg.Add(1)
		go func(r int, out []float32) {
			defer wg.Done()
			errOverEb[r], errs[r] = checkRank(r, out, ref, eb, tol)
			digests[r] = digest32(out)
		}(r, out)
	}
	wg.Wait()
	worst := 0.0
	for r := range outs {
		if errs[r] != nil {
			return errOverEb[r], errs[r]
		}
		worst = math.Max(worst, errOverEb[r])
		if digests[r] != digests[0] {
			return worst, fmt.Errorf("rank %d digest %08x differs from rank 0 digest %08x", r, digests[r], digests[0])
		}
	}
	return worst, nil
}

// referenceSum is the float64 element-wise sum of the ranks' inputs —
// the correctness reference, and the plain single-threaded baseline the
// layer replay times as baseline.sum_MBps.
func referenceSum(inputs [][]float32) []float64 {
	ref := make([]float64, len(inputs[0]))
	for _, in := range inputs {
		for i, v := range in {
			ref[i] += float64(v)
		}
	}
	return ref
}

// maxAbs returns the largest |x| over every input.
func maxAbs(inputs [][]float32) float64 {
	m := 0.0
	for _, in := range inputs {
		for _, v := range in {
			m = math.Max(m, math.Abs(float64(v)))
		}
	}
	return m
}

// valueRange returns max − min over every input (1 for constant input,
// matching internal/metrics.AbsBound).
func valueRange(inputs [][]float32) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, in := range inputs {
		for _, v := range in {
			lo = math.Min(lo, float64(v))
			hi = math.Max(hi, float64(v))
		}
	}
	if !(hi > lo) {
		return 1
	}
	return hi - lo
}
