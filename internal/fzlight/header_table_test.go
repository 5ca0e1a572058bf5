package fzlight

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var updateHeaderTable = flag.Bool("update-header-table", false,
	"rewrite testdata/header_outcomes.json from the current parser")

// The header-parse outcome table pins what full container validation
// (fixed header fields plus the chunk-size table) decides for crafted
// headers that break each rule, in every format version, and for every
// committed fuzz seed. A row is the input and its outcome: the error
// class, or the decoded fields and chunk sizes. If a row fails, the
// parser's acceptance rules changed.

const headerTablePath = "testdata/header_outcomes.json"

type headerRow struct {
	Name    string `json:"name"`
	Input   string `json:"input,omitempty"` // hex; empty for fuzz seeds, read from disk
	Outcome string `json:"outcome"`
}

// headerOutcome renders the parse result of comp as one comparable string.
func headerOutcome(comp []byte) string {
	h, err := ParseHeader(comp)
	if err != nil {
		for _, c := range []struct {
			name string
			err  error
		}{{"corrupt", ErrCorrupt}, {"bad-magic", ErrBadMagic}, {"bad-version", ErrBadVersion}} {
			if errors.Is(err, c.err) {
				return "err " + c.name
			}
		}
		return "err other: " + err.Error()
	}
	return fmt.Sprintf("ok v%d f64=%t eb=%016x B=%d nc=%d n=%d w=%d h=%d sizes=%v",
		h.Version, h.Float64, math.Float64bits(h.ErrorBound), h.BlockSize,
		h.NumChunks, h.DataLen, h.Width, h.Height, h.ChunkSizes)
}

// craftedHeaders returns named containers that each break (or probe) one
// validation rule, built from small valid containers of every version.
func craftedHeaders(t *testing.T) []headerRow {
	t.Helper()
	field := func(n int) []float32 {
		out := make([]float32, n)
		for i := range out {
			out[i] = float32(math.Sin(float64(i)/5) * 3)
		}
		return out
	}
	must := func(b []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	p1 := Params{ErrorBound: 1e-2}
	p3 := Params{ErrorBound: 1e-2, Threads: 3}
	d64 := make([]float64, 20)
	for i := range d64 {
		d64[i] = math.Cos(float64(i) / 3)
	}
	type base struct {
		v          int
		fixed      int
		one, three []byte
		empty      []byte
	}
	bases := []base{
		{1, 28, must(Compress(field(70), p1)), must(Compress(field(70), p3)), must(Compress(nil, p1))},
		{2, 32, must(Compress2D(field(42), 6, 7, p1)), must(Compress2D(field(42), 6, 7, p3)), must(Compress2D(nil, 0, 0, p1))},
		{3, 36, must(Compress3D(field(36), 3, 3, 4, p1)), must(Compress3D(field(36), 3, 3, 4, p3)), must(Compress3D(nil, 0, 0, 0, p1))},
	}
	var rows []headerRow
	add := func(name string, b []byte) {
		rows = append(rows, headerRow{Name: name, Input: hex.EncodeToString(b)})
	}
	mut := func(src []byte, f func(b []byte)) []byte {
		b := append([]byte(nil), src...)
		f(b)
		return b
	}
	for _, bs := range bases {
		pre := fmt.Sprintf("v%d/", bs.v)
		b := bs.three
		nc := int(binary.LittleEndian.Uint32(b[16:]))
		n := binary.LittleEndian.Uint64(b[20:])
		payload := uint64(len(b) - bs.fixed)
		add(pre+"valid-1chunk", bs.one)
		add(pre+"valid-3chunk", b)
		add(pre+"empty", bs.empty)
		add(pre+"short-fixed", b[:bs.fixed-1])
		add(pre+"bad-magic", mut(b, func(b []byte) { b[0] = 'X' }))
		add(pre+"block-size-0", mut(b, func(b []byte) { binary.LittleEndian.PutUint16(b[6:], 0) }))
		add(pre+"chunks-0", mut(b, func(b []byte) { binary.LittleEndian.PutUint32(b[16:], 0) }))
		for _, eb := range []struct {
			name string
			v    float64
		}{{"eb-0", 0}, {"eb-neg", -1e-2}, {"eb-nan", math.NaN()}, {"eb-inf", math.Inf(1)}} {
			v := eb.v
			add(pre+eb.name, mut(b, func(b []byte) { binary.LittleEndian.PutUint64(b[8:], math.Float64bits(v)) }))
		}
		add(pre+"chunks-exceed-payload", mut(b, func(b []byte) {
			binary.LittleEndian.PutUint32(b[16:], uint32(payload/8+1))
		}))
		add(pre+"elems-exceed-payload", mut(b, func(b []byte) {
			binary.LittleEndian.PutUint64(b[20:], payload*uint64(binary.LittleEndian.Uint16(b[6:]))+1)
		}))
		// Two rows (1D: two elements) for three chunks.
		unit := uint64(1)
		switch bs.v {
		case 2:
			unit = 7
		case 3:
			unit = 12
		}
		add(pre+"chunks-exceed-units", mut(b, func(b []byte) { binary.LittleEndian.PutUint64(b[20:], 2*unit) }))
		add(pre+"short-size-table", b[:bs.fixed+4*nc-1])
		add(pre+"table-overrun", mut(b, func(b []byte) {
			s := binary.LittleEndian.Uint32(b[bs.fixed:])
			binary.LittleEndian.PutUint32(b[bs.fixed:], s+1)
		}))
		add(pre+"table-underrun", mut(b, func(b []byte) {
			s := binary.LittleEndian.Uint32(b[bs.fixed:])
			binary.LittleEndian.PutUint32(b[bs.fixed:], s-1)
		}))
		add(pre+"table-huge", mut(b, func(b []byte) { binary.LittleEndian.PutUint32(b[bs.fixed+4:], math.MaxUint32) }))
		add(pre+"trailing-byte", append(append([]byte(nil), b...), 0))
		add(pre+"float64-flag", mut(b, func(b []byte) { b[5] |= 0x01 }))
		add(pre+"unknown-flag", mut(b, func(b []byte) { b[5] = 0x80 }))
		if bs.v >= 2 {
			add(pre+"len-not-multiple-of-unit", mut(b, func(b []byte) { binary.LittleEndian.PutUint64(b[20:], n-1) }))
			add(pre+"width-0", mut(b, func(b []byte) { binary.LittleEndian.PutUint32(b[28:], 0) }))
			add(pre+"width-huge", mut(b, func(b []byte) { binary.LittleEndian.PutUint32(b[28:], math.MaxUint32) }))
		}
		if bs.v == 3 {
			add(pre+"height-0", mut(b, func(b []byte) { binary.LittleEndian.PutUint32(b[32:], 0) }))
			add(pre+"plane-overflow", mut(b, func(b []byte) {
				binary.LittleEndian.PutUint32(b[28:], math.MaxUint32)
				binary.LittleEndian.PutUint32(b[32:], math.MaxUint32)
			}))
			add(pre+"plane-swapped", mut(b, func(b []byte) {
				binary.LittleEndian.PutUint32(b[28:], 3)
				binary.LittleEndian.PutUint32(b[32:], 4)
			}))
		}
		for _, ver := range []byte{0, 4, 255} {
			v := ver
			add(fmt.Sprintf("%sversion-%d", pre, v), mut(b, func(b []byte) { b[4] = v }))
		}
	}
	add("v1/f64-valid-3chunk", must(Compress64(d64, p3)))
	add("v1/f64-flag-cleared", mut(must(Compress64(d64, p3)), func(b []byte) { b[5] = 0 }))
	add("tiny/empty", nil)
	add("tiny/magic-only", []byte(magic))
	return rows
}

// fuzzSeedInputs reads every []byte argument of the committed fuzz seed
// corpora of this package and of hzdyn.
func fuzzSeedInputs(t *testing.T) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for pkg, dir := range map[string]string{"fzlight": "testdata/fuzz", "hzdyn": "../hzdyn/testdata/fuzz"} {
		files, err := filepath.Glob(filepath.Join(dir, "*", "*"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			raw, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			arg := 0
			for _, line := range strings.Split(string(raw), "\n") {
				if !strings.HasPrefix(line, "[]byte(") {
					continue
				}
				s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "[]byte("), ")"))
				if err != nil {
					t.Fatalf("%s: %v", f, err)
				}
				name := fmt.Sprintf("fuzz/%s/%s/%s#%d", pkg, filepath.Base(filepath.Dir(f)), filepath.Base(f), arg)
				out[name] = []byte(s)
				arg++
			}
		}
	}
	return out
}

func TestHeaderOutcomeTable(t *testing.T) {
	seeds := fuzzSeedInputs(t)
	if *updateHeaderTable {
		rows := craftedHeaders(t)
		names := make([]string, 0, len(seeds))
		for name := range seeds {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			rows = append(rows, headerRow{Name: name})
		}
		for i := range rows {
			in := seeds[rows[i].Name]
			if rows[i].Input != "" {
				in, _ = hex.DecodeString(rows[i].Input)
			}
			rows[i].Outcome = headerOutcome(in)
		}
		js, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(headerTablePath, append(js, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(headerTablePath)
	if err != nil {
		t.Fatal(err)
	}
	var rows []headerRow
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatal(err)
	}
	fuzzRows := 0
	for _, r := range rows {
		in, ok := seeds[r.Name]
		if r.Input != "" {
			if in, err = hex.DecodeString(r.Input); err != nil {
				t.Fatalf("%s: %v", r.Name, err)
			}
		} else if !ok && strings.HasPrefix(r.Name, "fuzz/") {
			t.Errorf("%s: fuzz seed missing from the corpus", r.Name)
			continue
		} else if ok {
			fuzzRows++
		}
		if got := headerOutcome(in); got != r.Outcome {
			t.Errorf("%s: outcome %q, table says %q", r.Name, got, r.Outcome)
		}
	}
	if fuzzRows != len(seeds) {
		t.Errorf("table covers %d fuzz seeds, corpus has %d", fuzzRows, len(seeds))
	}
}
