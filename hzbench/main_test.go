package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
)

// shortSizes keep every workload to a few milliseconds per operation.
var shortSizes = sizes{bulk: 1 << 20, sweep: 64 << 10, serve: 64 << 10}

var shortRun = runConfig{seconds: 0.05, setupRuns: 2, minOps: 2}

// benchmarkSpec is the subset of BENCHMARK.json the tests read.
type benchmarkSpec struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestShortRunReportsEveryMetric runs each workload for a few operations,
// untraced and traced, and checks that every metric BENCHMARK.json names
// is printed with its unit, and that the healthy run fails nothing.
func TestShortRunReportsEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	for _, wl := range spec.Workloads {
		if !slices.Contains(workloadNames, wl.Name) {
			t.Errorf("BENCHMARK.json lists workload %q, which the program does not have", wl.Name)
		}
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := shortRun
			cfg.traced = traced
			o, err := benchmark(name, 7, shortSizes, cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if o.failed != 0 {
				t.Fatalf("%s traced=%v: %d of %d operations failed: %v", name, traced, o.failed, o.attempted, o.firstErr)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			var out bytes.Buffer
			if err := report(&out, name, 7, traced, o); err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the JSON result: %v", name, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s traced=%v: result %+v", name, traced, res)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, BENCHMARK.json names %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", name, traced, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s: metric %s has unit %q, want %q", name, m.Name, got.Unit, m.Unit)
				}
				if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s: metric %s = %v", name, m.Name, got.Value)
				}
				if !strings.Contains(out.String(), m.Name) {
					t.Errorf("%s: metric %s not in the human-readable report", name, m.Name)
				}
			}
		}
	}
}

// twoRankOutputs returns a reference and two identical outputs within
// float32 rounding of it.
func twoRankOutputs() ([]float64, [][]float32) {
	ref := make([]float64, 1000)
	a := make([]float32, len(ref))
	for i := range ref {
		ref[i] = float64(i) * 0.25
		a[i] = float32(ref[i])
	}
	b := append([]float32(nil), a...)
	return ref, [][]float32{a, b}
}

func TestCheckerAcceptsHealthyOutput(t *testing.T) {
	ref, outs := twoRankOutputs()
	if _, err := checkAllreduce(outs, ref, 1e-3, 1e-3); err != nil {
		t.Fatal(err)
	}
}

// TestCheckerRejectsBitFlip flips one bit of one rank's output: a
// mantissa bit breaks cross-rank replication, an exponent bit also
// breaks the error tolerance.
func TestCheckerRejectsBitFlip(t *testing.T) {
	for _, bit := range []uint{0, 30} {
		ref, outs := twoRankOutputs()
		outs[1][500] = math.Float32frombits(math.Float32bits(outs[1][500]) ^ 1<<bit)
		if _, err := checkAllreduce(outs, ref, 1e-3, 1e-3); err == nil {
			t.Errorf("bit %d flipped: checker accepted the output", bit)
		}
	}
}

// TestCheckerRejectsDigestMismatch gives two ranks outputs that are each
// within tolerance of the reference but differ from each other.
func TestCheckerRejectsDigestMismatch(t *testing.T) {
	ref, outs := twoRankOutputs()
	outs[1][3] = math.Nextafter32(outs[1][3], 1e9)
	_, err := checkAllreduce(outs, ref, 1, 1)
	if err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("cross-rank mismatch: got %v, want a digest error", err)
	}
	if err := sameDigests(map[string]string{"0": "00000001", "1": "00000002"}, map[string]string{"0": "00000001", "1": "00000003"}); err == nil {
		t.Fatal("daemon digest mismatch accepted")
	}
}

// TestTailRule checks that the reported tail has exactly ten samples
// beyond it, and that a sample too small for that reports p100.
func TestTailRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted order
	}
	tl := tailOf(xs)
	beyond := 0
	for _, x := range xs {
		if x > tl.Value {
			beyond++
		}
	}
	if beyond != minBeyond || tl.Percentile != 90 || tl.Samples != 100 {
		t.Fatalf("tail of 1..100 = %+v with %d beyond, want p90 = 90 with 10 beyond", tl, beyond)
	}
	if tl := tailOf(xs[:10]); tl.Percentile != 100 || tl.Value != 100 {
		t.Fatalf("tail of 10 samples = %+v, want the maximum as p100", tl)
	}
	if tl := tailOf(xs[:11]); tl.Value != 90 {
		t.Fatalf("tail of 11 samples = %+v, want the smallest", tl)
	}
}

// TestDigestFormat pins the digest to crc32c over the little-endian
// float32 bits, the fingerprint hzccl-serve reports.
func TestDigestFormat(t *testing.T) {
	v := make([]float32, 3000) // spans several chunks
	buf := make([]byte, 4*len(v))
	for i := range v {
		v[i] = float32(i) * 1.5
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v[i]))
	}
	if got, want := digest32(v), crc32.Checksum(buf, castagnoli); got != want {
		t.Fatalf("digest %08x, want %08x", got, want)
	}
}
