package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"hzccl/internal/cluster"
)

// TestSizeMismatchIsTypedError gives one rank a longer input than the
// others under every schedule and backend: the collective must fail with
// ErrSizeMismatch, on whichever rank detects it, and no rank may panic
// (the Plain folds used to index past the shorter vector).
func TestSizeMismatchIsTypedError(t *testing.T) {
	c := New(Options{ErrorBound: testEB})
	for _, world := range []int{3, 5} {
		for _, algo := range FixedAlgorithms() {
			for _, b := range []Backend{Plain, CColl, HZ} {
				for odd := 0; odd < world; odd++ {
					name := fmt.Sprintf("world=%d/%v/%v/rank%d", world, algo, b, odd)
					_, err := cluster.Run(cluster.Config{Ranks: world}, func(r *cluster.Rank) error {
						n := 96
						if r.ID == odd {
							n = 120
						}
						_, err := c.Allreduce(r, b, algo, rankField(r.ID, n))
						return err
					})
					if err != nil && strings.Contains(err.Error(), "panicked") {
						t.Fatalf("%s: %v", name, err)
					}
					if !errors.Is(err, ErrSizeMismatch) {
						t.Errorf("%s: got %v, want ErrSizeMismatch", name, err)
					}
				}
			}
		}
	}
}

// TestGatherRejectsCraftedFrames sends a 2-rank gather root hand-made
// subtree blobs: an origin outside the group, a duplicate of the root's
// own origin, counts that disagree with the bytes, and a well-formed
// frame that leaves a rank out. Each must fail with ErrBadFrame instead
// of crashing the root or returning missing data.
func TestGatherRejectsCraftedFrames(t *testing.T) {
	entry := func(origin, plen int) []byte {
		b := appendU32(appendU32(nil, uint32(origin)), uint32(plen))
		return append(b, make([]byte, plen)...)
	}
	frame := func(count int, entries ...[]byte) []byte {
		b := appendU32(nil, uint32(count))
		for _, e := range entries {
			b = append(b, e...)
		}
		return b
	}
	cases := map[string][]byte{
		"origin out of range": frame(1, entry(7, 4)),
		"duplicate origin":    frame(1, entry(0, 4)),
		"count too high":      frame(2, entry(1, 4)),
		"count too low":       frame(1, entry(1, 4), entry(1, 4)),
		"truncated payload":   frame(1, entry(1, 4))[:10],
		"short":               {1, 0},
		"missing origin":      frame(0),
	}
	c := New(Options{ErrorBound: testEB})
	for name, blob := range cases {
		var rootErr error
		_, err := cluster.Run(cluster.Config{Ranks: 2}, func(r *cluster.Rank) error {
			if r.ID == 1 {
				return r.Send(0, blob)
			}
			_, rootErr = c.GatherPlain(r, make([]float32, 1), 0)
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !errors.Is(rootErr, ErrBadFrame) {
			t.Errorf("%s: got %v, want ErrBadFrame", name, rootErr)
		}
	}
}
