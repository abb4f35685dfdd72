// Command simd is the simulation-as-a-service campaign server: a
// long-running HTTP daemon that accepts simulation jobs (task-set runs,
// SDL models, fault-injection batteries, DSE sweeps), fans their cells
// across workers, and journals every state transition to an append-only
// checksummed event log in the campaign directory. Kill it at any point
// and restart it on the same directory: completed cells are served from
// the content-addressed result cache (never re-executed), lost leases
// are requeued, and results and signed receipts come out byte-identical
// to an uninterrupted run.
//
//	simd -dir campaign.d -addr :8080 -jobs 8
//
//	curl -s -X POST localhost:8080/jobs -d '{"kind":"taskset","payload":{...}}'
//	curl -s localhost:8080/jobs/job-000001
//	curl -s localhost:8080/jobs/job-000001/result
//	curl -s localhost:8080/jobs/job-000001/receipt
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/campaign"
)

// Connection bounds of the daemon's HTTP server: a client that stalls
// while sending its headers or request, or idles on a keep-alive
// connection, is disconnected instead of holding a connection forever.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps the campaign handler in the daemon's HTTP server.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func main() {
	dir := flag.String("dir", "campaign.d", "campaign directory (event log, result cache, receipt key)")
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	jobs := flag.Int("jobs", 0, "worker fan-out per campaign job (0 = NumCPU)")
	flag.Parse()

	srv, err := campaign.Open(campaign.Options{Dir: *dir, Jobs: *jobs})
	if err != nil {
		fmt.Fprintf(os.Stderr, "simd: %v\n", err)
		os.Exit(1)
	}
	resumed := len(srv.JobIDs())
	if resumed > 0 {
		fmt.Printf("simd: resumed %d job(s) from %s\n", resumed, *dir)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simd: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("simd: serving %s on http://%s\n", *dir, ln.Addr())

	httpSrv := newHTTPServer(srv.Handler())
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Printf("simd: %v; campaign state is journaled, restart to resume\n", sig)
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "simd: %v\n", err)
	}
	httpSrv.Close()
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "simd: %v\n", err)
		os.Exit(1)
	}
}
