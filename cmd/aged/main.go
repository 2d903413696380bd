// Command aged is the online allocation daemon: it wraps the solver
// stack (internal/numeric water-filling, internal/utility ϕ/ψ
// transforms, internal/demand estimation) behind an HTTP API and keeps
// the relaxed welfare optimum of Theorem 2 current as demand drifts.
//
// Clients POST observation windows to /v1/observe; the daemon folds them
// into an EWMA demand estimate and, when the estimate has drifted past
// the configured L1 threshold since the last solve, re-solves the
// allocation — warm-starting from the previous allocation and dual level,
// with a certified fallback to the cold solver. GET /v1/allocation
// returns the current optimum, GET /v1/psi serves the cached QCR reaction
// tables, and POST /v1/snapshot (plus -snapshot-every) persists state for
// crash recovery; at boot an existing snapshot is restored automatically.
//
// Usage:
//
//	aged -addr :8642 -items 2000 -servers 100 -rho 10 -mu 0.05 \
//	     -utility step:10 -half-life 60 -drift 0.05 \
//	     -snapshot /var/lib/aged.snap -snapshot-every 30s
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"impatience/internal/serve"
)

// Connection limits of the HTTP server. A client that trickles its
// headers or body (slowloris) is cut off instead of holding a
// connection and its goroutine forever; the write deadline bounds a
// stalled reader of a large allocation response.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	writeTimeout      = 30 * time.Second
	idleTimeout       = 2 * time.Minute
	maxHeaderBytes    = 64 << 10
)

// newHTTPServer wraps the handler with the daemon's connection limits.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

func main() {
	var (
		addr          = flag.String("addr", ":8642", "listen address")
		items         = flag.Int("items", 2000, "catalog size")
		servers       = flag.Int("servers", 100, "number of servers |S|")
		rho           = flag.Int("rho", 10, "cache slots per server")
		mu            = flag.Float64("mu", 0.05, "pairwise contact rate")
		utilitySpec   = flag.String("utility", "step:10", "delay-utility spec (step:τ, exp:ν, power:α, neglog)")
		halfLife      = flag.Float64("half-life", 60, "demand-estimator EWMA half-life, seconds")
		drift         = flag.Float64("drift", 0.05, "normalized L1 demand drift that triggers a re-solve")
		snapshot      = flag.String("snapshot", "", "snapshot path for crash recovery (empty = no snapshots)")
		snapshotEvery = flag.Duration("snapshot-every", 0, "periodic snapshot interval (0 = only on POST /v1/snapshot and shutdown)")
	)
	flag.Parse()

	if err := run(serve.Config{
		Items:        *items,
		Servers:      *servers,
		Rho:          *rho,
		Mu:           *mu,
		Utility:      *utilitySpec,
		HalfLife:     *halfLife,
		Drift:        *drift,
		SnapshotPath: *snapshot,
	}, *addr, *snapshotEvery); err != nil {
		fmt.Fprintln(os.Stderr, "aged:", err)
		os.Exit(1)
	}
}

func run(cfg serve.Config, addr string, snapshotEvery time.Duration) error {
	s, err := serve.New(cfg)
	if err != nil {
		return err
	}
	if cfg.SnapshotPath != "" {
		switch err := s.Restore(); {
		case err == nil:
			fmt.Printf("aged: restored snapshot %s\n", cfg.SnapshotPath)
		case errors.Is(err, os.ErrNotExist):
			fmt.Printf("aged: no snapshot at %s, starting fresh\n", cfg.SnapshotPath)
		default:
			// A snapshot that exists but cannot be restored (corrupt file,
			// mismatched operating point) is a configuration error: silently
			// discarding folded demand state would be worse than stopping.
			return fmt.Errorf("restore %s: %w", cfg.SnapshotPath, err)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	httpSrv := newHTTPServer(addr, s.Handler())
	serveErr := make(chan error, 1)
	go func() {
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			serveErr <- err
		}
	}()
	fmt.Printf("aged: serving on %s (items=%d servers=%d rho=%d utility=%s)\n",
		addr, cfg.Items, cfg.Servers, cfg.Rho, cfg.Utility)

	if cfg.SnapshotPath != "" && snapshotEvery > 0 {
		go func() {
			tick := time.NewTicker(snapshotEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					if _, err := s.Snapshot(); err != nil {
						fmt.Fprintln(os.Stderr, "aged: periodic snapshot:", err)
					}
				}
			}
		}()
	}

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return err
	}
	if cfg.SnapshotPath != "" {
		if _, err := s.Snapshot(); err != nil {
			return fmt.Errorf("final snapshot: %w", err)
		}
		fmt.Printf("aged: state saved to %s\n", cfg.SnapshotPath)
	}
	return nil
}
