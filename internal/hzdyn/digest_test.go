package hzdyn

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"testing"

	"hzccl/internal/fzlight"
)

var updateDigests = flag.Bool("update-digests", false, "rewrite testdata/digests.json from the current reducer")

// The digest table pins the exact output bytes of every reducer entry
// point — Add, StaticAdd, ScaleInt and Sub — over 1D float32, 1D float64,
// 2D and 3D containers with one and three chunks. Inputs mix smooth
// regions with constant runs at different offsets, so all four pipelines
// and the odd-sized tail blocks fire. If a row fails, the reducer emits
// different bytes for the same inputs.

const digestsPath = "testdata/digests.json"

type digestRow struct {
	Case   string `json:"case"`
	Op     string `json:"op"`
	SHA256 string `json:"sha256"`
	Stats  string `json:"stats,omitempty"`
}

// digestField is a smooth field with a constant run over [flatLo, flatHi).
func digestField(n int, phase float64, flatLo, flatHi int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 40*math.Sin(phase+float64(i)/37) + 3*math.Cos(float64(i)/5)
		if i >= flatLo && i < flatHi {
			out[i] = 1.25
		}
	}
	return out
}

func digestOperands(t *testing.T) (names []string, pairs map[string][2][]byte) {
	t.Helper()
	f32 := func(v []float64) []float32 {
		out := make([]float32, len(v))
		for i, x := range v {
			out[i] = float32(x)
		}
		return out
	}
	type shape struct {
		name string
		n    int
		comp func(v []float64, p fzlight.Params) ([]byte, error)
	}
	shapes := []shape{
		{"1d-f32", 3001, func(v []float64, p fzlight.Params) ([]byte, error) { return fzlight.Compress(f32(v), p) }},
		{"1d-f64", 1501, fzlight.Compress64},
		{"2d", 45 * 67, func(v []float64, p fzlight.Params) ([]byte, error) { return fzlight.Compress2D(f32(v), 45, 67, p) }},
		{"3d", 9 * 11 * 13, func(v []float64, p fzlight.Params) ([]byte, error) {
			return fzlight.Compress3D(f32(v), 9, 11, 13, p)
		}},
	}
	pairs = map[string][2][]byte{}
	for _, s := range shapes {
		for _, threads := range []int{1, 3} {
			p := fzlight.Params{ErrorBound: 1e-3, Threads: threads}
			a, err := s.comp(digestField(s.n, 0, s.n/6, s.n/2), p)
			if err != nil {
				t.Fatal(err)
			}
			b, err := s.comp(digestField(s.n, 1.3, s.n/3, 2*s.n/3), p)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s/%dchunk", s.name, threads)
			names = append(names, name)
			pairs[name] = [2][]byte{a, b}
		}
	}
	return names, pairs
}

func digestRows(t *testing.T) []digestRow {
	t.Helper()
	sum := func(b []byte) string {
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:])
	}
	stats := func(st Stats) string {
		return fmt.Sprintf("blocks=%d p=%v", st.Blocks, st.Pipeline[1:])
	}
	names, pairs := digestOperands(t)
	var rows []digestRow
	for _, name := range names {
		a, b := pairs[name][0], pairs[name][1]
		out, st, err := Add(a, b)
		if err != nil {
			t.Fatalf("%s Add: %v", name, err)
		}
		rows = append(rows, digestRow{name, "Add", sum(out), stats(st)})
		out, err = StaticAdd(a, b)
		if err != nil {
			t.Fatalf("%s StaticAdd: %v", name, err)
		}
		rows = append(rows, digestRow{name, "StaticAdd", sum(out), ""})
		out, err = ScaleInt(a, 3)
		if err != nil {
			t.Fatalf("%s ScaleInt: %v", name, err)
		}
		rows = append(rows, digestRow{name, "ScaleInt3", sum(out), ""})
		out, st, err = Sub(a, b)
		if err != nil {
			t.Fatalf("%s Sub: %v", name, err)
		}
		rows = append(rows, digestRow{name, "Sub", sum(out), stats(st)})
	}
	return rows
}

func TestDigestTable(t *testing.T) {
	got := digestRows(t)
	if *updateDigests {
		js, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestsPath, append(js, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(digestsPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []digestRow
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d rows, table has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s %s: got %+v, table says %+v", want[i].Case, want[i].Op, got[i], want[i])
		}
	}
}
