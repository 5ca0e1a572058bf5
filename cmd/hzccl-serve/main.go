// Command hzccl-serve runs one rank of the collective-as-a-service mesh:
// a long-lived daemon that handshakes a TCP mesh once and then executes
// many collective jobs over it, each on an isolated transport session.
//
// Usage (one process per rank, same flags everywhere):
//
//	hzccl-serve -rank R -peers h0:p0,h1:p1,... \
//	    [-client-listen ADDR] [-queue-depth N] [-max-concurrent N] \
//	    [-job-timeout DUR] [-recv-timeout DUR] [-dial-timeout DUR] \
//	    [-obs-listen ADDR] [-metrics FILE|-]
//
// Rank 0 is the scheduler and client front door: it serves the JSON-lines
// submission protocol on -client-listen (default a loopback ephemeral
// port, printed on stdout at startup). This binary is the only daemon
// entry point; submit jobs with `hzccl-collective -submit ADDR ...` or the
// hzccl/serve client package.
//
// The submission queue is bounded (-queue-depth): a submit landing on a
// full queue is rejected immediately with a typed queue-full error
// instead of growing a backlog. -max-concurrent caps the jobs running
// simultaneously; the slot is claimed before any rank starts, so the
// concurrent set is identical mesh-wide.
//
// The daemon exits on SIGINT/SIGTERM, or tears itself down when a peer
// daemon dies — the service mesh has fixed membership (elasticity is
// per-job, via each job's own shrink consensus), so a lost peer means
// the service cannot run full-world jobs anymore.
//
// Observability: -obs-listen serves the standard introspection endpoint
// plus /jobs, the live job registry. -metrics dumps the telemetry
// snapshot at exit ('-' = JSON to stdout, FILE.prom = Prometheus text).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"hzccl/internal/obs"
	"hzccl/internal/telemetry"
	"hzccl/serve"
)

func main() {
	var (
		rank       = flag.Int("rank", 0, "this process's rank in the service mesh")
		peers      = flag.String("peers", "", "comma-separated host:port listen addresses of all ranks (indexed by rank)")
		clientAddr = flag.String("client-listen", "", "rank 0's client-protocol listen address (empty = loopback ephemeral, printed at startup)")
		queueDepth = flag.Int("queue-depth", 0, "bounded submission queue size on rank 0 (0 = 16); a full queue rejects with a typed error")
		maxConc    = flag.Int("max-concurrent", 0, "cap on simultaneously running jobs (0 = 2)")
		jobTO      = flag.Duration("job-timeout", 0, "per-job membership-handshake and result-collection deadline (0 = 60s)")
		recvTO     = flag.Duration("recv-timeout", 0, "per-job receive deadline (0 = 2s, matching hzccl-collective -transport)")
		dialTO     = flag.Duration("dial-timeout", 0, "mesh formation deadline (0 = 15s)")
		obsListen  = flag.String("obs-listen", "", "serve the live introspection endpoint (healthz, metrics, pprof, flight recorder, /jobs) on this host:port")
		metricsOut = flag.String("metrics", "", "dump the telemetry snapshot at exit: '-' = JSON to stdout, FILE = JSON, FILE.prom = Prometheus text format")
	)
	flag.Parse()

	peerList := strings.Split(*peers, ",")
	if *peers == "" || len(peerList) < 2 {
		fmt.Fprintln(os.Stderr, "hzccl-serve: -peers needs at least two comma-separated host:port addresses")
		os.Exit(2)
	}

	d, err := serve.Start(serve.Options{
		Rank:          *rank,
		Peers:         peerList,
		ClientAddr:    *clientAddr,
		QueueDepth:    *queueDepth,
		MaxConcurrent: *maxConc,
		JobTimeout:    *jobTO,
		RecvTimeout:   *recvTO,
		DialTimeout:   *dialTO,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "hzccl-serve: %v\n", err)
		os.Exit(1)
	}
	if *rank == 0 {
		// Stdout so scripts can capture the (possibly ephemeral) address.
		fmt.Printf("client protocol on %s\n", d.ClientAddr())
	}

	if *obsListen != "" {
		srv, err := obs.Start(*obsListen, obs.Options{
			Rank: *rank, World: d.World(), Transport: "tcp",
			Jobs: func() any { return d.Jobs() },
		})
		if err != nil {
			d.Close()
			fmt.Fprintf(os.Stderr, "hzccl-serve: obs: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "obs: serving on http://%s\n", srv.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "hzccl-serve: rank %d: %v, shutting down\n", *rank, s)
	case <-d.Done():
		fmt.Fprintf(os.Stderr, "hzccl-serve: rank %d: service stopped\n", *rank)
	}
	d.Close()

	if err := telemetry.DumpSnapshot(*metricsOut); err != nil {
		fmt.Fprintf(os.Stderr, "hzccl-serve: metrics: %v\n", err)
		os.Exit(1)
	}
}
