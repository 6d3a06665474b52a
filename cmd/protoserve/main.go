// Command protoserve runs the verification service: an HTTP/JSON job
// queue over the protogen Engine API. Clients submit verify / fuzz /
// simulate / lint / litmus jobs, poll status with live progress, fetch
// results and cancel mid-flight; a fixed set of workers shares one
// verify result cache (structurally identical resubmits are served
// instantly) and failing fuzz campaigns sink minimized reproducers
// into a corpus directory.
//
// Usage:
//
//	protoserve -addr :8080 -workers 2 -cache-dir .vcache -corpus .corpus
//
// Endpoints:
//
//	POST   /jobs             submit: {"kind":"verify","protocol":"MSI","mode":"nonstalling","caches":2}
//	GET    /jobs             list all jobs
//	GET    /jobs/{id}        status + latest typed progress snapshot
//	GET    /jobs/{id}/result full result (verify Result / fuzz Report / sim Stats)
//	DELETE /jobs/{id}        cancel (queued/running) or free a finished job's record
//	GET    /healthz          worker, queue and cache health
//	GET    /corpus           reproducers collected by the corpus sink
//
// Internally the service is one bounded job queue drained by worker
// goroutines, with panic retry and dead-lettering after -max-attempts
// (docs/SERVICE.md). With -store DIR the job queue is durable:
// submitted jobs are fsynced to a write-ahead log before the 202
// response, and a restarted server replays the log — finished results
// are served from the store, and queued jobs and jobs a crash
// interrupted run again.
//
// SIGINT/SIGTERM shut down gracefully: running jobs are canceled at
// their next cancellation boundary and recorded as canceled.
//
// -debug-addr (opt-in, keep it loopback) serves net/http/pprof on a
// separate listener, so a live service can be CPU- and heap-profiled
// without redeploying: protoserve -addr :8080 -debug-addr 127.0.0.1:6060
// then `go tool pprof http://127.0.0.1:6060/debug/pprof/profile`.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"protogen"
	"protogen/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "protoserve:", err)
		os.Exit(1)
	}
}

// listenHook, when non-nil, observes the bound address (tests bind
// :0 and need the resolved port).
var listenHook func(net.Addr)

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("protoserve", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		addr     = fs.String("addr", ":8080", "listen address")
		workers  = fs.Int("workers", 2, "job worker pool size")
		depth    = fs.Int("queue", 64, "max queued jobs before submits get 503")
		parallel = fs.Int("parallel", 0, "per-job exploration workers (0 = all cores)")
		cacheDir = fs.String("cache-dir", "", "shared verify result cache directory (\"\" disables; see docs/CACHING.md)")
		corpus   = fs.String("corpus", "", "corpus sink: minimized reproducers from failing fuzz jobs land here")
		store    = fs.String("store", "", "durable job store directory: jobs survive restarts via a write-ahead log (\"\" keeps jobs in memory; see docs/SERVICE.md)")
		retries  = fs.Int("max-attempts", 0, "execution attempts per job before dead-lettering (0 = default)")
		debug    = fs.String("debug-addr", "", "serve net/http/pprof on this address (opt-in; bind loopback, the endpoints are unauthenticated)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Fuzz family exemplars and corpus reproducers become addressable
	// by name in submitted jobs, same as protofuzz -list.
	if err := protogen.RegisterFuzzEntries(); err != nil {
		return err
	}

	srv, err := service.New(service.Config{
		Workers:     *workers,
		QueueDepth:  *depth,
		Parallelism: *parallel,
		CacheDir:    *cacheDir,
		CorpusDir:   *corpus,
		StoreDir:    *store,
		MaxAttempts: *retries,
	})
	if err != nil {
		return err
	}

	var debugSrv *http.Server
	if *debug != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dln, err := net.Listen("tcp", *debug)
		if err != nil {
			return fmt.Errorf("debug-addr: %w", err)
		}
		debugSrv = &http.Server{Handler: dmux}
		go func() { _ = debugSrv.Serve(dln) }()
		fmt.Fprintf(stdout, "protoserve debug/pprof on http://%s/debug/pprof/\n", dln.Addr())
		defer debugSrv.Close()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if listenHook != nil {
		listenHook(ln.Addr())
	}
	fmt.Fprintf(stdout, "protoserve listening on %s (%d workers, cache %q, corpus %q)\n",
		ln.Addr(), *workers, *cacheDir, *corpus)

	httpSrv := &http.Server{Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		_ = srv.Shutdown(context.Background())
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(stdout, "protoserve: shutting down (canceling running jobs)")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	return srv.Shutdown(shutdownCtx)
}
