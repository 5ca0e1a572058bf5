package conformance

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"hzccl/internal/cluster"
	"hzccl/internal/core"
	"hzccl/internal/fzlight"
	"hzccl/internal/hzdyn"
)

func sineField(n int, phase float64) []float32 {
	out := make([]float32, n)
	for i := range out {
		x := float64(i) / 50
		out[i] = float32(math.Sin(x+phase) + 0.3*math.Sin(9*x))
	}
	return out
}

func randomField(n int, seed int64, scale float64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float32, n)
	for i := range out {
		out[i] = float32((rng.Float64()*2 - 1) * scale)
	}
	return out
}

func TestCompressorOracleCleanOnStructuredData(t *testing.T) {
	o := CompressorOracle{Threads: 2}
	for _, eb := range []float64{1e-2, 1e-3, 1e-4} {
		rep := o.Check(sineField(1000, 0.4), eb)
		if err := rep.Err(); err != nil {
			t.Fatalf("eb=%g: %v", eb, err)
		}
		if rep.Checks == 0 {
			t.Fatal("oracle evaluated no contracts")
		}
	}
}

func TestCompressorOracleCleanOnRandomData(t *testing.T) {
	o := CompressorOracle{}
	for _, n := range []int{0, 1, 31, 32, 33, 257, 4096} {
		rep := o.Check(randomField(n, int64(n)+1, 5), 1e-3)
		if err := rep.Err(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestCompressorOracleCleanOnConstantData(t *testing.T) {
	data := make([]float32, 500)
	for i := range data {
		data[i] = 2.5
	}
	if err := (CompressorOracle{}).Check(data, 1e-3).Err(); err != nil {
		t.Fatal(err)
	}
}

// A codec whose reconstruction violates the error bound at one element
// must be caught and localized to that element.
func TestCompressorOracleCatchesBoundViolation(t *testing.T) {
	const badIndex = 37
	eb := 1e-3
	broken := Codecs(1)[:1]
	innerDecode := broken[0].Decode
	broken[0] = Codec{
		Name:      "broken-fzlight",
		BlockSize: broken[0].BlockSize,
		Compress:  broken[0].Compress,
		Decode: func(comp []byte) ([]float32, error) {
			out, err := innerDecode(comp)
			if err == nil && len(out) > badIndex {
				out[badIndex] += float32(5 * eb)
			}
			return out, err
		},
	}
	rep := CompressorOracle{Codecs: broken}.Check(sineField(512, 1.1), eb)
	if rep.OK() {
		t.Fatal("oracle missed a 5·eb bound violation")
	}
	f := rep.Failures[0]
	if f.Check != "bound" || f.Index != badIndex {
		t.Fatalf("failure = %+v, want bound violation at element %d", f, badIndex)
	}
	if f.Block != badIndex/broken[0].BlockSize {
		t.Fatalf("failure localized to block %d, want %d", f.Block, badIndex/broken[0].BlockSize)
	}
}

func TestHomomorphicOracleAllCasesClean(t *testing.T) {
	for _, threads := range []int{1, 3} {
		o := HomomorphicOracle{Params: fzlight.Params{ErrorBound: 1e-3, Threads: threads}}
		rep, err := o.CheckAllCases(256)
		if err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if err := rep.Err(); err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
	}
}

// offByOneAdd is the deliberately broken reducer of the acceptance
// criteria: it performs a correct homomorphic Add, then bumps the first
// chunk's outlier (the first quantized value) by one — an exact
// quantized-domain off-by-one in the non-constant pipeline's output that
// shifts reconstructions by 2·eb.
func offByOneAdd(a, b []byte) ([]byte, hzdyn.Stats, error) {
	sum, st, err := hzdyn.Add(a, b)
	if err != nil {
		return sum, st, err
	}
	h, perr := fzlight.ParseHeaderLite(sum)
	if perr != nil {
		return nil, st, perr
	}
	o := h.PayloadStart()
	v := int32(uint32(sum[o]) | uint32(sum[o+1])<<8 | uint32(sum[o+2])<<16 | uint32(sum[o+3])<<24)
	u := uint32(v + 1)
	sum[o], sum[o+1], sum[o+2], sum[o+3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
	return sum, st, nil
}

func TestHomomorphicOracleCatchesOffByOne(t *testing.T) {
	eb := 1e-3
	o := HomomorphicOracle{
		Params: fzlight.Params{ErrorBound: eb},
		Add:    offByOneAdd,
	}
	// Both-encoded (non-constant) inputs: the pipeline-④ path.
	cases := CaseVectors(eb, 256)
	var cv CaseVector
	for _, c := range cases {
		if c.Name == "both-encoded" {
			cv = c
		}
	}
	res, err := o.Check(cv.A, cv.B)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.OK() {
		t.Fatal("oracle missed a quantized-domain off-by-one in the non-constant pipeline")
	}
	f := res.Report.Failures[0]
	if f.Check != "homomorphism" {
		t.Fatalf("failure check = %q, want homomorphism (%+v)", f.Check, f)
	}
	// The divergence must be about one quantization step (2·eb).
	if d := math.Abs(f.Got - f.Want); d < eb || d > 3*eb {
		t.Fatalf("divergence %g not the expected ~2·eb step", d)
	}
	if res.Stats.Pipeline[hzdyn.PipelineBothEncoded] == 0 {
		t.Fatal("test did not exercise the non-constant pipeline")
	}
}

func TestHomomorphicOracleOverflowFallback(t *testing.T) {
	o := HomomorphicOracle{Params: fzlight.Params{ErrorBound: 1e-3}}
	rep := &Report{}
	fellBack, err := o.checkOverflowFold(rep, 128)
	if err != nil {
		t.Fatal(err)
	}
	if !fellBack {
		t.Fatal("fold never reached the overflow fallback")
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
}

// genField produces deterministic per-rank collective inputs.
func genField(n int) func(rank int) []float32 {
	return func(rank int) []float32 {
		return randomField(n, int64(rank)*7919+13, 1)
	}
}

func TestCollectiveOracleAgreement(t *testing.T) {
	o := CollectiveOracle{Opt: core.Options{ErrorBound: 1e-3}}
	for _, ranks := range []int{1, 3, 5} {
		n := ranks*33 + 1 // never divisible by the rank count (for ranks > 1)
		rep, err := o.CheckReduceScatter(ranks, genField(n))
		if err != nil {
			t.Fatalf("reduce_scatter ranks=%d: %v", ranks, err)
		}
		if err := rep.Err(); err != nil {
			t.Fatalf("reduce_scatter ranks=%d: %v", ranks, err)
		}
		rep, err = o.CheckAllreduce(ranks, genField(n))
		if err != nil {
			t.Fatalf("allreduce ranks=%d: %v", ranks, err)
		}
		if err := rep.Err(); err != nil {
			t.Fatalf("allreduce ranks=%d: %v", ranks, err)
		}
	}
}

// TestCollectiveOracleAllAlgorithms sweeps every fixed schedule (ring,
// recursive doubling, Rabenseifner, hierarchical) over a non-uniform
// 3/5/8 node topology, holding the full contract — reference agreement,
// bitwise replication, cross-flavor differential — per schedule.
func TestCollectiveOracleAllAlgorithms(t *testing.T) {
	const ranks = 16 // 3+5+8
	o := CollectiveOracle{
		Opt:        core.Options{ErrorBound: 1e-3},
		Algorithms: core.FixedAlgorithms(),
		Topology:   &cluster.Topology{NodeSizes: []int{3, 5, 8}},
	}
	n := ranks*17 + 1 // never divisible by the rank count
	rep, err := o.CheckAllreduce(ranks, genField(n))
	if err != nil {
		t.Fatalf("allreduce: %v", err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("allreduce: %v", err)
	}
	// Four schedules × three flavors, each at least (length + agreement)
	// per rank: a sanity floor proving all schedules actually ran.
	if rep.Checks < 4*3*2*ranks {
		t.Fatalf("only %d checks ran; the schedule sweep did not cover all algorithms", rep.Checks)
	}
	rep, err = o.CheckReduceScatter(ranks, genField(n))
	if err != nil {
		t.Fatalf("reduce_scatter: %v", err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("reduce_scatter: %v", err)
	}
}

// The oracle verifies schedules, not the cost-model selector: AlgoAuto in
// the algorithm list (like any undefined value) must be rejected up
// front, not silently resolved.
func TestCollectiveOracleRejectsAutoAndInvalid(t *testing.T) {
	for _, algo := range []core.Algorithm{core.AlgoAuto, core.Algorithm(42)} {
		o := CollectiveOracle{
			Opt:        core.Options{ErrorBound: 1e-3},
			Algorithms: []core.Algorithm{algo},
		}
		if _, err := o.CheckAllreduce(2, genField(32)); err == nil {
			t.Fatalf("oracle accepted %v", algo)
		}
	}
}

// The second acceptance injection: a ring message corrupted in flight must
// surface as a checksum error from the run, never as silently wrong data.
func TestCollectiveOracleDetectsCorruptedRingMessage(t *testing.T) {
	o := CollectiveOracle{
		Opt:   core.Options{ErrorBound: 1e-3},
		Fault: cluster.FaultOn(cluster.OnLink(0, 1, 0), cluster.FaultCorrupt, 0),
	}
	_, err := o.CheckAllreduce(3, genField(96))
	if err == nil {
		t.Fatal("corrupted ring message was not detected")
	}
	if !errors.Is(err, cluster.ErrMessageCorrupt) {
		t.Fatalf("err = %v, want ErrMessageCorrupt", err)
	}
}

// A dropped ring message must likewise be detected (sequence gap or
// timeout) rather than deadlock the collective.
func TestCollectiveOracleDetectsDroppedRingMessage(t *testing.T) {
	o := CollectiveOracle{
		Opt:         core.Options{ErrorBound: 1e-3},
		Fault:       cluster.FaultOn(cluster.OnLink(1, 2, 0), cluster.FaultDrop, 0),
		RecvTimeout: 2e9, // 2s wall clock, far above a healthy 3-rank run
	}
	_, err := o.CheckAllreduce(3, genField(96))
	if err == nil {
		t.Fatal("dropped ring message was not detected")
	}
	if !errors.Is(err, cluster.ErrMessageLost) && !errors.Is(err, cluster.ErrRecvTimeout) {
		t.Fatalf("err = %v, want ErrMessageLost or ErrRecvTimeout", err)
	}
}

func TestAddWithFallbackOverflowProducesWidenedBound(t *testing.T) {
	eb := 1e-3
	p := fzlight.Params{ErrorBound: eb}
	n := 128
	extreme := make([]float32, n)
	mag := eb * float64(uint32(1)<<29)
	for i := range extreme {
		if i%2 == 0 {
			extreme[i] = float32(mag)
		} else {
			extreme[i] = float32(-mag)
		}
	}
	comp, err := fzlight.Compress(extreme, p)
	if err != nil {
		t.Fatal(err)
	}
	acc := comp
	fellBack := false
	for fold := 0; fold < 4 && !fellBack; fold++ {
		var err error
		acc, fellBack, _, err = hzdyn.AddWithFallback(acc, comp)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !fellBack {
		t.Fatal("fold never overflowed")
	}
	h, err := fzlight.ParseHeader(acc)
	if err != nil {
		t.Fatal(err)
	}
	if h.ErrorBound <= eb {
		t.Fatalf("fallback bound %g not widened beyond %g", h.ErrorBound, eb)
	}
	if _, err := fzlight.Decompress(acc); err != nil {
		t.Fatal(err)
	}
}
