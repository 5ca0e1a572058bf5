// Command scalingdiff checks a fresh scaling sweep against the committed
// one: every point of the new curve must exist in the baseline with a
// bit-identical virtual completion time, and every baseline point of a
// world the new curve covers must be in the new curve (so a sweep over a
// subset of worlds still checks, but a dropped schedule does not pass).
// The sweep's virtual time is a pure function of the schedules, the
// backends and the cost model, so any difference means one of them
// changed. Run it after the sweep:
//
//	SCALING_OUT=/tmp/s.json go test -run TestScalingSweep .
//	go run ./scripts/scalingdiff BENCH_scaling.json /tmp/s.json
package main

import (
	"encoding/json"
	"fmt"
	"os"
)

type point struct {
	World     int     `json:"world"`
	Topology  string  `json:"topology"`
	Backend   string  `json:"backend"`
	Algorithm string  `json:"algorithm"`
	Seconds   float64 `json:"seconds"`
}

func load(path string) ([]point, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Points []point `json:"points"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc.Points, nil
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: scalingdiff BASELINE.json NEW.json")
		os.Exit(2)
	}
	base, err := load(os.Args[1])
	if err == nil && len(base) == 0 {
		err = fmt.Errorf("%s: no points", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "scalingdiff:", err)
		os.Exit(2)
	}
	fresh, err := load(os.Args[2])
	if err == nil && len(fresh) == 0 {
		err = fmt.Errorf("%s: no points", os.Args[2])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "scalingdiff:", err)
		os.Exit(2)
	}
	key := func(p point) string {
		return fmt.Sprintf("world=%d topo=%s %s/%s", p.World, p.Topology, p.Backend, p.Algorithm)
	}
	want := make(map[string]float64, len(base))
	for _, p := range base {
		want[key(p)] = p.Seconds
	}
	got := make(map[string]bool, len(fresh))
	worlds := make(map[int]bool)
	for _, p := range fresh {
		got[key(p)] = true
		worlds[p.World] = true
	}
	bad := 0
	for _, p := range base {
		if worlds[p.World] && !got[key(p)] {
			fmt.Printf("%s: missing from the new sweep\n", key(p))
			bad++
		}
	}
	for _, p := range fresh {
		w, ok := want[key(p)]
		switch {
		case !ok:
			fmt.Printf("%s: not in the baseline\n", key(p))
			bad++
		case w != p.Seconds:
			fmt.Printf("%s: virtual seconds %v, baseline %v\n", key(p), p.Seconds, w)
			bad++
		}
	}
	if bad > 0 {
		fmt.Printf("scalingdiff: %d points differ from %s\n", bad, os.Args[1])
		os.Exit(1)
	}
	fmt.Printf("scalingdiff: all %d points match %s\n", len(fresh), os.Args[1])
}
