package fzlight

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// volume builds a depth×height×width field with smooth 3D structure.
func volume(d, h, w int, seed int64, noise float64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float32, d*h*w)
	for z := 0; z < d; z++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				v := math.Sin(float64(z)*0.1)*math.Cos(float64(y)*0.07)*math.Sin(float64(x)*0.05)*8 +
					float64(z)*0.02 + rng.NormFloat64()*noise
				out[(z*h+y)*w+x] = float32(v)
			}
		}
	}
	return out
}

func TestCompress3DRoundTrip(t *testing.T) {
	for _, dims := range [][3]int{{16, 16, 16}, {5, 11, 7}, {1, 8, 8}, {8, 1, 8}, {8, 8, 1}, {2, 2, 2}} {
		d, h, w := dims[0], dims[1], dims[2]
		data := volume(d, h, w, 1, 0.001)
		for _, threads := range []int{1, 3} {
			comp, err := Compress3D(data, d, h, w, Params{ErrorBound: 1e-3, Threads: threads})
			if err != nil {
				t.Fatalf("%v threads=%d: %v", dims, threads, err)
			}
			got, err := Decompress(comp)
			if err != nil {
				t.Fatalf("%v: %v", dims, err)
			}
			if len(got) != d*h*w {
				t.Fatalf("%v: %d elems", dims, len(got))
			}
			if m := maxAbsErr(data, got); m > tol(1e-3, data) {
				t.Fatalf("%v threads=%d: err %g", dims, threads, m)
			}
		}
	}
}

func TestCompress3DValidation(t *testing.T) {
	data := make([]float32, 24)
	if _, err := Compress3D(data, 2, 3, 5, Params{ErrorBound: 1e-3}); !errors.Is(err, ErrBadParams) {
		t.Errorf("dims mismatch: %v", err)
	}
	if _, err := Compress3D(data, 2, 3, 4, Params{}); !errors.Is(err, ErrBadParams) {
		t.Errorf("zero bound: %v", err)
	}
	if _, err := Compress3D(nil, 0, 0, 0, Params{ErrorBound: 1e-3}); err != nil {
		t.Errorf("empty volume: %v", err)
	}
}

// On volumetric data with strong cross-plane correlation the 3D predictor
// must beat both the 1D delta and the 2D stencil.
func TestLorenzo3DBeats2DAnd1D(t *testing.T) {
	d, h, w := 32, 64, 64
	data := make([]float32, d*h*w)
	for z := 0; z < d; z++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				// planes repeat with a slow drift: ideal for 3D prediction
				data[(z*h+y)*w+x] = float32(math.Sin(float64(y)*0.3)*math.Cos(float64(x)*0.2)*40 +
					float64(z)*0.3 + float64(y)*0.5)
			}
		}
	}
	eb := 1e-3
	c1, err := Compress(data, Params{ErrorBound: eb})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Compress2D(data, d*h, w, Params{ErrorBound: eb})
	if err != nil {
		t.Fatal(err)
	}
	c3, err := Compress3D(data, d, h, w, Params{ErrorBound: eb})
	if err != nil {
		t.Fatal(err)
	}
	if !(len(c3) < len(c2) && len(c2) < len(c1)) {
		t.Fatalf("expected 3D < 2D < 1D, got %d %d %d", len(c3), len(c2), len(c1))
	}
}

func TestHeader3RoundTrip(t *testing.T) {
	data := volume(6, 10, 8, 2, 0.01)
	comp, err := Compress3D(data, 6, 10, 8, Params{ErrorBound: 1e-3, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	h, err := ParseHeader(comp)
	if err != nil {
		t.Fatal(err)
	}
	if h.Version != 3 || h.Width != 8 || h.Height != 10 || h.DataLen != 480 || h.NumChunks != 4 {
		t.Fatalf("header %+v", h)
	}
	prev := 0
	for i := 0; i < h.NumChunks; i++ {
		s, e := h.ElemRange(i)
		if s != prev || (e-s)%(8*10) != 0 {
			t.Fatalf("chunk %d range [%d,%d)", i, s, e)
		}
		prev = e
	}
	if prev != 480 {
		t.Fatalf("chunks end at %d", prev)
	}
	if _, err := Stats(comp); err != nil {
		t.Fatal(err)
	}
}

func TestCorrupt3DStreams(t *testing.T) {
	data := volume(4, 8, 8, 3, 0.01)
	comp, err := Compress3D(data, 4, 8, 8, Params{ErrorBound: 1e-3, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(comp[:20]); err == nil {
		t.Error("truncated v3 header accepted")
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 1000; trial++ {
		bad := append([]byte(nil), comp...)
		bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
		_, _ = Decompress(bad) // must not panic
	}
}
