// Command parsample-worker hosts the non-zero ranks of distributed
// sampling jobs: one worker process is one seat in a parsample cluster. A
// coordinator (experiments -fig dist, or any transport.Cluster user) ships
// each worker its rank's graph shard over the control connection; the
// workers form the job's TCP mesh among themselves and run the same
// sampling kernels on the same rank engine as the in-process backend, bit
// for bit.
//
// Usage:
//
//	parsample-worker [-listen 127.0.0.1:0] [-debug-addr :9090]
//	                 [-failpoints "transport.send=error;count=1"]
//
// The worker prints its listen address on startup (pass a fixed port to
// skip the scrape). -debug-addr serves /statsz (job and traffic counters
// as JSON) and /healthz. -failpoints arms fault-injection sites for drills
// (default: $PARSAMPLE_FAILPOINTS; testing only). SIGINT/SIGTERM drain:
// in-flight jobs abort with a structured error to their coordinator, and
// the process exits 0 once every connection is closed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"parsample/internal/faultinject"
	"parsample/internal/transport"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:0", "address to listen on for control and mesh connections")
	debugAddr := flag.String("debug-addr", "", "serve /statsz and /healthz on this address (empty: disabled)")
	failpts := flag.String("failpoints", os.Getenv("PARSAMPLE_FAILPOINTS"), "fault-injection spec, e.g. \"transport.send=error;count=1\" (default: $PARSAMPLE_FAILPOINTS; testing only)")
	flag.Parse()

	if err := run(*listen, *debugAddr, *failpts); err != nil {
		fmt.Fprintf(os.Stderr, "parsample-worker: %v\n", err)
		os.Exit(1)
	}
}

func run(listen, debugAddr, failpts string) error {
	if err := faultinject.Configure(failpts); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	w, err := transport.NewWorker(listen)
	if err != nil {
		return err
	}
	fmt.Printf("parsample-worker: listening on %s\n", w.Addr())

	var debug *http.Server
	if debugAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/statsz", func(rw http.ResponseWriter, _ *http.Request) {
			rw.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(rw)
			enc.SetIndent("", "  ")
			enc.Encode(w.Stats())
		})
		mux.HandleFunc("/healthz", func(rw http.ResponseWriter, _ *http.Request) {
			fmt.Fprintln(rw, "ok")
		})
		ln, err := net.Listen("tcp", debugAddr)
		if err != nil {
			w.Close()
			return fmt.Errorf("debug listen: %w", err)
		}
		fmt.Printf("parsample-worker: debug endpoints on http://%s/statsz\n", ln.Addr())
		debug = &http.Server{Handler: mux}
		go debug.Serve(ln)
	}

	err = w.Serve(ctx)
	if debug != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		debug.Shutdown(sctx)
		cancel()
	}
	if err != nil {
		return err
	}
	fmt.Println("parsample-worker: drained, shutting down")
	return nil
}
