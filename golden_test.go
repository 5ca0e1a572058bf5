package hzccl_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"hzccl"
	"hzccl/internal/datasets"
)

// Golden schedule table: every backend × fixed algorithm × reduction op
// over a spread of world shapes, pinned by the SHA-256 of each rank's
// output bytes and the run's virtual completion time under fixed modeled
// Rates. The data is SimSet1 at eb 1e-3 (not on the dyadic grid), so the
// compressed backends take their lossy quantized path and any change to
// which bytes get compressed, merged or re-anchored shows up as a digest
// change. Rewrite the table with `go test -run TestGoldenSchedules -update-schedules .`
// only when a schedule change is intended to alter results.

var updateSchedules = flag.Bool("update-schedules", false, "rewrite testdata/golden_schedules.json from the current schedules")

const (
	goldenElems = 3001
	goldenEB    = 1e-3
	goldenPath  = "testdata/golden_schedules.json"
)

type goldenRow struct {
	Name    string   `json:"name"`
	Seconds float64  `json:"seconds"`
	Digests []string `json:"digests"`
}

// goldenSecondsExceptions lists rows whose virtual time may legitimately
// differ from the table (digests never may), with the reason. Each must
// stay within 1% of the recorded value.
var goldenSecondsExceptions = map[string]string{}

type goldenWorld struct {
	ranks int
	topo  string // "" = flat
}

func goldenRows(t *testing.T) []goldenRow {
	t.Helper()
	worlds := []goldenWorld{{1, ""}, {2, ""}, {3, ""}, {5, ""}, {6, ""}, {8, ""}, {8, "3,5"}}
	backends := []hzccl.Backend{hzccl.BackendMPI, hzccl.BackendCColl, hzccl.BackendHZCCL}
	algos := []hzccl.Algorithm{hzccl.AlgoRing, hzccl.AlgoRecursiveDoubling, hzccl.AlgoRabenseifner, hzccl.AlgoHierarchical}
	ops := []string{"allreduce", "reduce_scatter"}
	rates := hzccl.DefaultAutoRates

	inputs := make([][]float32, 8)
	for rk := range inputs {
		f, err := datasets.Field("SimSet1", rk, goldenElems)
		if err != nil {
			t.Fatal(err)
		}
		inputs[rk] = f
	}

	var rows []goldenRow
	for _, w := range worlds {
		var topo *hzccl.Topology
		if w.topo != "" {
			var err error
			if topo, err = hzccl.ParseTopology(w.topo); err != nil {
				t.Fatal(err)
			}
		}
		for _, b := range backends {
			for _, algo := range algos {
				for _, op := range ops {
					name := fmt.Sprintf("%s/%s/%s/world=%d", b, algo, op, w.ranks)
					if w.topo != "" {
						name += "/topo=" + w.topo
					}
					opt := hzccl.CollectiveOptions{ErrorBound: goldenEB, Algorithm: algo, Rates: &rates}
					outs := make([][]float32, w.ranks)
					res, err := hzccl.RunCluster(hzccl.ClusterConfig{Ranks: w.ranks, Topology: topo},
						func(r *hzccl.Rank) error {
							data := append([]float32(nil), inputs[r.ID()]...)
							var out []float32
							var err error
							if op == "allreduce" {
								out, err = r.Allreduce(data, b, opt)
							} else {
								out, err = r.ReduceScatter(data, b, opt)
							}
							outs[r.ID()] = out
							return err
						})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					row := goldenRow{Name: name, Seconds: res.Seconds}
					for _, out := range outs {
						row.Digests = append(row.Digests, floatDigest(out))
					}
					rows = append(rows, row)
				}
			}
		}
	}
	return rows
}

func floatDigest(v []float32) string {
	buf := make([]byte, 4*len(v))
	for i, x := range v {
		b := math.Float32bits(x)
		buf[4*i], buf[4*i+1], buf[4*i+2], buf[4*i+3] = byte(b), byte(b>>8), byte(b>>16), byte(b>>24)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

func TestGoldenSchedules(t *testing.T) {
	rows := goldenRows(t)
	if *updateSchedules {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		buf, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d rows to %s", len(rows), goldenPath)
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-schedules)", err)
	}
	var want []goldenRow
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]goldenRow, len(want))
	for _, w := range want {
		byName[w.Name] = w
	}
	if len(rows) != len(want) {
		t.Errorf("table has %d rows, run produced %d", len(want), len(rows))
	}
	for _, got := range rows {
		w, ok := byName[got.Name]
		if !ok {
			t.Errorf("%s: missing from the table", got.Name)
			continue
		}
		if len(got.Digests) != len(w.Digests) {
			t.Errorf("%s: %d rank digests, want %d", got.Name, len(got.Digests), len(w.Digests))
			continue
		}
		for rk := range got.Digests {
			if got.Digests[rk] != w.Digests[rk] {
				t.Errorf("%s: rank %d output digest changed", got.Name, rk)
			}
		}
		if got.Seconds == w.Seconds {
			continue
		}
		if _, ok := goldenSecondsExceptions[got.Name]; !ok {
			t.Errorf("%s: virtual seconds %v, want %v", got.Name, got.Seconds, w.Seconds)
		} else if d := math.Abs(got.Seconds-w.Seconds) / w.Seconds; d >= 0.01 {
			t.Errorf("%s: virtual seconds %v moved %.3g%% from %v (exception allows < 1%%)", got.Name, got.Seconds, 100*d, w.Seconds)
		}
	}
}
