package fzlight

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden/*.bin from the current encoder")

// On-disk golden vectors: full containers committed under testdata/golden/
// and compared byte-for-byte against the current encoder. Unlike the
// in-code vectors above (which pin single blocks and the header layout),
// these lock the complete wire format — chunk tables, outliers, markers,
// payload packing — across 1D/2D/3D and float64 containers. If one fails,
// the format changed: bump the version byte and provide migration, don't
// regenerate blindly.

type goldenVector struct {
	name     string
	params   Params
	compress func(p Params) ([]byte, error)
	decode   func(comp []byte) (int, error) // returns element count
}

func goldenVectors() []goldenVector {
	sine := func(n int, phase float64) []float32 {
		out := make([]float32, n)
		for i := range out {
			out[i] = float32(math.Sin(phase + float64(i)/9))
		}
		return out
	}
	f32 := func(data []float32) func(comp []byte) (int, error) {
		return func(comp []byte) (int, error) {
			got, err := Decompress(comp)
			return len(got), err
		}
	}
	outlier := sine(128, 0.2)
	outlier[0] = 9000
	outlier[64] = -8500
	constant := make([]float32, 96)
	for i := range constant {
		constant[i] = 2.5
	}
	d64 := make([]float64, 100)
	for i := range d64 {
		d64[i] = math.Cos(float64(i) / 11)
	}
	oneD := sine(300, 0)
	twoD := sine(12*16, 0.5)
	threeD := sine(4*5*6, 1)
	return []goldenVector{
		{
			name:   "1d-sine",
			params: Params{ErrorBound: 1e-3, Threads: 2},
			compress: func(p Params) ([]byte, error) {
				return Compress(oneD, p)
			},
			decode: f32(oneD),
		},
		{
			name:   "1d-outlier",
			params: Params{ErrorBound: 1e-3},
			compress: func(p Params) ([]byte, error) {
				return Compress(outlier, p)
			},
			decode: f32(outlier),
		},
		{
			name:   "1d-constant",
			params: Params{ErrorBound: 1e-3},
			compress: func(p Params) ([]byte, error) {
				return Compress(constant, p)
			},
			decode: f32(constant),
		},
		{
			name:   "2d-ramp",
			params: Params{ErrorBound: 1e-2},
			compress: func(p Params) ([]byte, error) {
				return Compress2D(twoD, 12, 16, p)
			},
			decode: f32(twoD),
		},
		{
			name:   "3d-wave",
			params: Params{ErrorBound: 1e-2},
			compress: func(p Params) ([]byte, error) {
				return Compress3D(threeD, 4, 5, 6, p)
			},
			decode: f32(threeD),
		},
		{
			name:   "f64-cos",
			params: Params{ErrorBound: 1e-4},
			compress: func(p Params) ([]byte, error) {
				return Compress64(d64, p)
			},
			decode: func(comp []byte) (int, error) {
				got, err := Decompress64(comp)
				return len(got), err
			},
		},
		// Multi-chunk 2D/3D/float64 containers pin the chunk table and
		// the per-chunk row/plane partition of every format version.
		{
			name:   "2d-ramp-3t",
			params: Params{ErrorBound: 1e-2, Threads: 3},
			compress: func(p Params) ([]byte, error) {
				return Compress2D(twoD, 12, 16, p)
			},
			decode: f32(twoD),
		},
		{
			name:   "3d-wave-3t",
			params: Params{ErrorBound: 1e-2, Threads: 3},
			compress: func(p Params) ([]byte, error) {
				return Compress3D(threeD, 4, 5, 6, p)
			},
			decode: f32(threeD),
		},
		{
			name:   "f64-cos-3t",
			params: Params{ErrorBound: 1e-4, Threads: 3},
			compress: func(p Params) ([]byte, error) {
				return Compress64(d64, p)
			},
			decode: func(comp []byte) (int, error) {
				got, err := Decompress64(comp)
				return len(got), err
			},
		},
	}
}

func TestGoldenFiles(t *testing.T) {
	for _, gv := range goldenVectors() {
		t.Run(gv.name, func(t *testing.T) {
			path := filepath.Join("testdata", "golden", gv.name+".bin")
			comp, err := gv.compress(gv.params)
			if err != nil {
				t.Fatal(err)
			}
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, comp, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run `go test ./internal/fzlight -run TestGoldenFiles -update`): %v", err)
			}
			if !bytes.Equal(comp, want) {
				t.Fatalf("%s: encoder output diverged from committed wire format (%d vs %d bytes)",
					gv.name, len(comp), len(want))
			}
			// The committed bytes must also still decode.
			n, err := gv.decode(want)
			if err != nil {
				t.Fatalf("%s: committed container no longer decodes: %v", gv.name, err)
			}
			h, err := ParseHeader(want)
			if err != nil {
				t.Fatal(err)
			}
			if n != h.DataLen {
				t.Fatalf("%s: decoded %d elements, header says %d", gv.name, n, h.DataLen)
			}
		})
	}
}
