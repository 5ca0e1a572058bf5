package fzlight

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// image builds a height×width field with smooth 2D structure plus noise.
func image(h, w int, seed int64, noise float64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float32, h*w)
	for i := 0; i < h; i++ {
		for j := 0; j < w; j++ {
			v := math.Sin(float64(i)*0.05)*math.Cos(float64(j)*0.05)*10 +
				float64(i)*0.01 + rng.NormFloat64()*noise
			out[i*w+j] = float32(v)
		}
	}
	return out
}

func TestCompress2DRoundTrip(t *testing.T) {
	for _, dims := range [][2]int{{64, 64}, {100, 37}, {1, 50}, {50, 1}, {3, 3}} {
		h, w := dims[0], dims[1]
		data := image(h, w, 1, 0.001)
		for _, threads := range []int{1, 3} {
			for _, eb := range []float64{1e-2, 1e-3} {
				comp, err := Compress2D(data, h, w, Params{ErrorBound: eb, Threads: threads})
				if err != nil {
					t.Fatalf("%dx%d eb=%g: %v", h, w, eb, err)
				}
				got, err := Decompress(comp)
				if err != nil {
					t.Fatalf("%dx%d eb=%g: %v", h, w, eb, err)
				}
				if len(got) != h*w {
					t.Fatalf("got %d elems want %d", len(got), h*w)
				}
				if m := maxAbsErr(data, got); m > tol(eb, data) {
					t.Fatalf("%dx%d eb=%g threads=%d: err %g", h, w, eb, threads, m)
				}
			}
		}
	}
}

func TestCompress2DEmpty(t *testing.T) {
	comp, err := Compress2D(nil, 0, 0, Params{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d", len(got))
	}
}

func TestCompress2DValidation(t *testing.T) {
	data := make([]float32, 12)
	if _, err := Compress2D(data, 3, 5, Params{ErrorBound: 1e-3}); !errors.Is(err, ErrBadParams) {
		t.Errorf("dims mismatch: %v", err)
	}
	if _, err := Compress2D(data, -3, -4, Params{ErrorBound: 1e-3}); !errors.Is(err, ErrBadParams) {
		t.Errorf("negative dims: %v", err)
	}
	if _, err := Compress2D(data, 3, 4, Params{}); !errors.Is(err, ErrBadParams) {
		t.Errorf("zero bound: %v", err)
	}
}

// The 2D Lorenzo predictor must beat the 1D delta on fields with strong
// vertical structure — the reason the extension exists.
func TestLorenzo2DBeats1DOnImages(t *testing.T) {
	h, w := 256, 256
	// Vertical gradient dominates: every row is the previous row shifted.
	data := make([]float32, h*w)
	for i := 0; i < h; i++ {
		for j := 0; j < w; j++ {
			data[i*w+j] = float32(math.Sin(float64(j)*0.3)*50 + float64(i)*0.5)
		}
	}
	eb := 1e-3
	c1, err := Compress(data, Params{ErrorBound: eb})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Compress2D(data, h, w, Params{ErrorBound: eb})
	if err != nil {
		t.Fatal(err)
	}
	if len(c2) >= len(c1) {
		t.Fatalf("2D (%d bytes) should beat 1D (%d bytes) on row-repetitive data", len(c2), len(c1))
	}
}

func TestHeader2RoundTrip(t *testing.T) {
	data := image(40, 30, 2, 0.01)
	comp, err := Compress2D(data, 40, 30, Params{ErrorBound: 1e-3, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	h, err := ParseHeader(comp)
	if err != nil {
		t.Fatal(err)
	}
	if h.Width != 30 || h.DataLen != 1200 || h.NumChunks != 4 {
		t.Fatalf("header %+v", h)
	}
	// chunk element ranges cover the data in row multiples
	prev := 0
	for i := 0; i < h.NumChunks; i++ {
		s, e := h.ElemRange(i)
		if s != prev || (e-s)%30 != 0 {
			t.Fatalf("chunk %d range [%d,%d)", i, s, e)
		}
		prev = e
	}
	if prev != 1200 {
		t.Fatalf("chunks end at %d", prev)
	}
	st, err := Stats(comp)
	if err != nil {
		t.Fatal(err)
	}
	if st.Blocks == 0 {
		t.Fatal("no blocks counted")
	}
}

func TestCompress2DDeterministicReconstruction(t *testing.T) {
	// As in 1D, reconstruction must not depend on the thread partitioning.
	data := image(64, 48, 3, 0.01)
	ref, err := Decompress(mustCompress2D(t, data, 64, 48, Params{ErrorBound: 1e-3, Threads: 1}))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(mustCompress2D(t, data, 64, 48, Params{ErrorBound: 1e-3, Threads: 5}))
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("partitioning changed 2D reconstruction at %d", i)
		}
	}
}

func mustCompress2D(t *testing.T, data []float32, h, w int, p Params) []byte {
	t.Helper()
	comp, err := Compress2D(data, h, w, p)
	if err != nil {
		t.Fatal(err)
	}
	return comp
}

func TestCorrupt2DStreams(t *testing.T) {
	data := image(32, 32, 4, 0.01)
	comp := mustCompress2D(t, data, 32, 32, Params{ErrorBound: 1e-3, Threads: 2})
	if _, err := Decompress(comp[:16]); err == nil {
		t.Error("truncated v2 header accepted")
	}
	if _, err := Decompress(comp[:len(comp)-3]); err == nil {
		t.Error("truncated v2 payload accepted")
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 1000; trial++ {
		bad := append([]byte(nil), comp...)
		pos := rng.Intn(len(bad))
		bad[pos] ^= byte(1 + rng.Intn(255))
		_, _ = Decompress(bad) // must not panic
	}
}
