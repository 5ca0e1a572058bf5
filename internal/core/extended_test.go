package core

import (
	"fmt"
	"math"
	"testing"

	"hzccl/internal/cluster"
)

func TestBroadcastBothBackends(t *testing.T) {
	for _, nRanks := range []int{1, 2, 3, 5, 8, 13} {
		for root := 0; root < nRanks; root += 2 {
			src := rankField(root, 1000)
			outs := make([][]float32, nRanks)
			c := New(Options{ErrorBound: testEB})
			runCluster(t, nRanks, func(r *cluster.Rank) error {
				out, err := c.BroadcastPlain(r, src, root)
				outs[r.ID] = out
				return err
			})
			for rk, out := range outs {
				for i := range out {
					if out[i] != src[i] {
						t.Fatalf("plain bcast n=%d root=%d rank %d differs at %d", nRanks, root, rk, i)
					}
				}
			}
			runCluster(t, nRanks, func(r *cluster.Rank) error {
				out, err := c.BroadcastCompressed(r, src, root)
				outs[r.ID] = out
				return err
			})
			for rk, out := range outs {
				if len(out) != len(src) {
					t.Fatalf("compressed bcast rank %d: %d elems", rk, len(out))
				}
				for i := range out {
					if d := math.Abs(float64(out[i]) - float64(src[i])); d > testEB+1e-6 {
						t.Fatalf("compressed bcast n=%d root=%d rank %d err %g", nRanks, root, rk, d)
					}
				}
			}
		}
	}
}

func TestBroadcastBadRoot(t *testing.T) {
	c := New(Options{ErrorBound: testEB})
	err := func() error {
		_, err := cluster.Run(cluster.Config{Ranks: 2}, func(r *cluster.Rank) error {
			_, err := c.BroadcastPlain(r, []float32{1}, 5)
			return err
		})
		return err
	}()
	if err == nil {
		t.Fatal("out-of-range root accepted")
	}
}

func TestGatherBothBackends(t *testing.T) {
	for _, nRanks := range []int{1, 2, 4, 7} {
		root := nRanks / 2
		c := New(Options{ErrorBound: testEB})
		var rootOut [][]float32
		runCluster(t, nRanks, func(r *cluster.Rank) error {
			out, err := c.GatherPlain(r, rankField(r.ID, 500), root)
			if r.ID == root {
				rootOut = out
			} else if out != nil {
				return fmt.Errorf("non-root rank %d received gather output", r.ID)
			}
			return err
		})
		if len(rootOut) != nRanks {
			t.Fatalf("root gathered %d payloads", len(rootOut))
		}
		for origin, vals := range rootOut {
			want := rankField(origin, 500)
			for i := range vals {
				if vals[i] != want[i] {
					t.Fatalf("plain gather n=%d origin %d differs", nRanks, origin)
				}
			}
		}
		runCluster(t, nRanks, func(r *cluster.Rank) error {
			out, err := c.GatherCompressed(r, rankField(r.ID, 500), root)
			if r.ID == root {
				rootOut = out
			}
			return err
		})
		for origin, vals := range rootOut {
			want := rankField(origin, 500)
			for i := range vals {
				if d := math.Abs(float64(vals[i]) - float64(want[i])); d > testEB+1e-6 {
					t.Fatalf("compressed gather origin %d err %g", origin, d)
				}
			}
		}
	}
}

func TestAllgatherBothBackends(t *testing.T) {
	const nRanks = 6
	c := New(Options{ErrorBound: testEB})
	outs := make([][][]float32, nRanks)
	runCluster(t, nRanks, func(r *cluster.Rank) error {
		out, err := c.AllgatherPlain(r, rankField(r.ID, 700))
		outs[r.ID] = out
		return err
	})
	for rk, all := range outs {
		for origin, vals := range all {
			want := rankField(origin, 700)
			for i := range vals {
				if vals[i] != want[i] {
					t.Fatalf("plain allgather rank %d origin %d differs", rk, origin)
				}
			}
		}
	}
	runCluster(t, nRanks, func(r *cluster.Rank) error {
		out, err := c.AllgatherCompressed(r, rankField(r.ID, 700))
		outs[r.ID] = out
		return err
	})
	for rk, all := range outs {
		for origin, vals := range all {
			want := rankField(origin, 700)
			tol := testEB + 1e-6
			if origin == rk {
				tol = 0 // own block passes through uncompressed
			}
			for i := range vals {
				if d := math.Abs(float64(vals[i]) - float64(want[i])); d > tol {
					t.Fatalf("compressed allgather rank %d origin %d err %g", rk, origin, d)
				}
			}
		}
	}
}

func TestReducePlainAndHZ(t *testing.T) {
	for _, nRanks := range []int{1, 2, 5, 8} {
		root := nRanks - 1
		n := 1200
		exact := exactSum(nRanks, n)
		c := New(Options{ErrorBound: testEB})

		var got []float32
		runCluster(t, nRanks, func(r *cluster.Rank) error {
			out, err := c.ReducePlain(r, rankField(r.ID, n), root)
			if r.ID == root {
				got = out
			} else if out != nil {
				return fmt.Errorf("non-root received reduce output")
			}
			return err
		})
		for i := range got {
			if d := math.Abs(float64(got[i]) - exact[i]); d > 1e-3 {
				t.Fatalf("plain reduce n=%d err %g at %d", nRanks, d, i)
			}
		}

		runCluster(t, nRanks, func(r *cluster.Rank) error {
			out, _, err := c.ReduceHZ(r, rankField(r.ID, n), root)
			if r.ID == root {
				got = out
			}
			return err
		})
		bound := float64(nRanks)*testEB + 1e-4
		for i := range got {
			if d := math.Abs(float64(got[i]) - exact[i]); d > bound {
				t.Fatalf("hz reduce n=%d err %g at %d (bound %g)", nRanks, d, i, bound)
			}
		}
	}
}

// The homomorphic rooted reduce must match the plain reduce within the
// accumulated quantization budget and charge HPR, never CPT.
func TestReduceHZBreakdown(t *testing.T) {
	const nRanks = 8
	c := New(Options{ErrorBound: testEB})
	res := runCluster(t, nRanks, func(r *cluster.Rank) error {
		_, _, err := c.ReduceHZ(r, rankField(r.ID, 4096), 0)
		return err
	})
	if res.Breakdown[cluster.CatCPT] != 0 {
		t.Errorf("ReduceHZ charged CPT: %v", res.Breakdown)
	}
	for _, cat := range []cluster.Category{cluster.CatCPR, cluster.CatHPR, cluster.CatDPR} {
		if res.Breakdown[cat] == 0 {
			t.Errorf("ReduceHZ missing %s", cat)
		}
	}
}

func TestAlltoallBothBackends(t *testing.T) {
	for _, nRanks := range []int{1, 2, 4, 6} {
		n := 960
		c := New(Options{ErrorBound: testEB})
		outs := make([][][]float32, nRanks)
		runCluster(t, nRanks, func(r *cluster.Rank) error {
			out, err := c.AlltoallPlain(r, rankField(r.ID, n))
			outs[r.ID] = out
			return err
		})
		for rk, blocks := range outs {
			for src, vals := range blocks {
				want := rankField(src, n)
				s, e := BlockBounds(n, nRanks, rk)
				if len(vals) != e-s {
					t.Fatalf("alltoall rank %d from %d: %d elems want %d", rk, src, len(vals), e-s)
				}
				for i := range vals {
					if vals[i] != want[s+i] {
						t.Fatalf("plain alltoall rank %d from %d differs at %d", rk, src, i)
					}
				}
			}
		}
		runCluster(t, nRanks, func(r *cluster.Rank) error {
			out, err := c.AlltoallCompressed(r, rankField(r.ID, n))
			outs[r.ID] = out
			return err
		})
		for rk, blocks := range outs {
			for src, vals := range blocks {
				want := rankField(src, n)
				s, _ := BlockBounds(n, nRanks, rk)
				tol := testEB + 1e-6
				if src == rk {
					tol = 0
				}
				for i := range vals {
					if d := math.Abs(float64(vals[i]) - float64(want[s+i])); d > tol {
						t.Fatalf("compressed alltoall rank %d from %d err %g", rk, src, d)
					}
				}
			}
		}
	}
}

// On a slow network the compressed broadcast must beat the plain one in
// virtual time (compressible payload, modeled rates for determinism).
func TestCompressedBroadcastFaster(t *testing.T) {
	const nRanks, n = 8, 1 << 16
	rates := &Rates{CPR: 1e9, DPR: 2e9, CPT: 8e9, HPR: 8e9}
	c := New(Options{ErrorBound: testEB, Rates: rates})
	cfg := cluster.Config{Ranks: nRanks, BandwidthBytes: 0.2e9}
	src := smoothRankField(0, n) // highly compressible

	run := func(f func(r *cluster.Rank) error) float64 {
		res, err := cluster.Run(cfg, f)
		if err != nil {
			t.Fatal(err)
		}
		return res.Time
	}
	tPlain := run(func(r *cluster.Rank) error {
		_, err := c.BroadcastPlain(r, src, 0)
		return err
	})
	tComp := run(func(r *cluster.Rank) error {
		_, err := c.BroadcastCompressed(r, src, 0)
		return err
	})
	if tComp >= tPlain {
		t.Fatalf("compressed broadcast (%g) not faster than plain (%g)", tComp, tPlain)
	}
}

func TestSegmentedMatchesUnsegmented(t *testing.T) {
	const nRanks, n = 6, 4096
	exact := exactSum(nRanks, n)
	plain := New(Options{ErrorBound: testEB})
	seg := New(Options{ErrorBound: testEB, Segments: 4})

	blocks := make([][]float32, nRanks)
	runCluster(t, nRanks, func(r *cluster.Rank) error {
		b, err := seg.ReduceScatterCCollSegmented(r, rankField(r.ID, n))
		blocks[r.ID] = b
		return err
	})
	for rk, block := range blocks {
		k := BlockOwned(rk, nRanks)
		s, _ := BlockBounds(n, nRanks, k)
		for i := range block {
			if d := math.Abs(float64(block[i]) - exact[s+i]); d > 2*float64(nRanks)*testEB+1e-4 {
				t.Fatalf("segmented RS rank %d elem %d err %g", rk, i, d)
			}
		}
	}

	outs := make([][]float32, nRanks)
	runCluster(t, nRanks, func(r *cluster.Rank) error {
		out, err := seg.AllreduceCCollSegmented(r, rankField(r.ID, n))
		outs[r.ID] = out
		return err
	})
	for _, out := range outs {
		checkAllreduce(t, out, exact, nRanks, "segmented allreduce")
	}

	// Segments <= 1 must fall back to the unsegmented implementation and
	// produce identical values.
	one := New(Options{ErrorBound: testEB, Segments: 1})
	a := make([][]float32, nRanks)
	b := make([][]float32, nRanks)
	runCluster(t, nRanks, func(r *cluster.Rank) error {
		out, err := one.AllreduceCCollSegmented(r, rankField(r.ID, n))
		a[r.ID] = out
		return err
	})
	runCluster(t, nRanks, func(r *cluster.Rank) error {
		out, err := plain.Allreduce(r, CColl, AlgoRing, rankField(r.ID, n))
		b[r.ID] = out
		return err
	})
	for rk := range a {
		for i := range a[rk] {
			if a[rk][i] != b[rk][i] {
				t.Fatalf("Segments=1 fallback differs at rank %d elem %d", rk, i)
			}
		}
	}
}

// With modeled rates, segmentation must reduce the virtual completion
// time of the C-Coll allreduce when transfers are substantial relative to
// compute: compression of segment k+1 overlaps the wire time of segment
// k. Noisy data (modest ratio) keeps the wire share high — the regime
// segmentation exists for.
func TestSegmentationOverlapsPipeline(t *testing.T) {
	const nRanks, n = 8, 1 << 17
	rates := &Rates{CPR: 1e9, DPR: 2e9, CPT: 8e9, HPR: 8e9}
	cfg := cluster.Config{Ranks: nRanks, BandwidthBytes: 0.3e9}
	run := func(segments int) float64 {
		c := New(Options{ErrorBound: testEB, Rates: rates, Segments: segments})
		res, err := cluster.Run(cfg, func(r *cluster.Rank) error {
			_, err := c.AllreduceCCollSegmented(r, rankField(r.ID, n))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Time
	}
	t1 := run(1)
	t8 := run(8)
	if t8 >= t1 {
		t.Fatalf("segmentation did not overlap: S=8 %.6fs vs S=1 %.6fs", t8, t1)
	}
}

func TestSegRanges(t *testing.T) {
	for _, tc := range []struct{ n, s int }{{100, 4}, {7, 3}, {5, 10}, {0, 4}, {1, 1}} {
		ranges := segRanges(tc.n, tc.s)
		prev := 0
		for _, rg := range ranges {
			if rg[0] != prev {
				t.Fatalf("n=%d s=%d: gap at %v", tc.n, tc.s, rg)
			}
			prev = rg[1]
		}
		if prev != tc.n {
			t.Fatalf("n=%d s=%d: ranges end at %d", tc.n, tc.s, prev)
		}
	}
}
