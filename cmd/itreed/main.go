// Command itreed serves the Incentive Tree referral API over HTTP (see
// internal/server for the endpoint reference and internal/store for the
// multi-tenant campaign surface), instrumented with the internal/obs
// observability stack.
//
// Usage:
//
//	itreed [-addr :8080] [-mechanism tdrm] [-phi 0.5] [-fair 0.05]
//	       [-seed alice,bob] [-debug-addr :6060]
//	       [-data-dir /var/lib/itreed]
//	       [-checkpoint-interval 30s] [-checkpoint-bytes 1048576]
//	       [-journal-sync os|interval|always] [-journal-sync-interval 1s]
//	       [-batch-max 64] [-queue-depth 1024]
//	       [-audit-interval 10s] [-audit-quarantine]
//	       [-epoch-interval 1m]
//	       [-role primary|follower] [-primary http://host:8080]
//	       [-max-staleness 5s]
//
// The daemon hosts many campaigns (POST /v1/campaigns to create one;
// /v1/campaigns/{id}/... for its API); the pre-multi-tenant /v1/*
// endpoints keep working as aliases for the "default" campaign. With
// -data-dir set, every campaign gets its own binary journal under
// <data-dir>/campaigns/<id>/ and a background checkpointer bounds
// recovery cost by periodically snapshotting state and compacting the
// journal; without it, campaigns live in memory only. Data written by
// releases that kept JSON on disk (or used the flat -journal file) is
// refused at startup until `itree convert` migrates it (see README).
//
// With -audit-interval set, every campaign runs the online Sybil audit
// service (see internal/audit): each periodic scan reads the campaign's
// latest committed version and scores every node against the canonical
// attack shapes (ε-chains, deep single-child chains, star bursts) plus
// a counterfactual reward probe; a campaign whose version has not moved
// and that has no tracked suspect is skipped. GET
// /v1/campaigns/{id}/audit serves the findings. Payout quarantine —
// POST .../audit/quarantine and DELETE .../audit/quarantine/{name}, or
// automatic with -audit-quarantine — is journaled and crash-recoverable:
// quarantined subtrees serve zero rewards while raw contributions stay
// intact.
//
// With -epoch-interval set, every campaign settles a payout epoch on
// that cadence (see journal.Ledger.Settle): the budget pool accrues the
// campaign's Phi per unit of new contribution, the served reward table
// — quarantined subtrees masked to zero — is frozen into one atomic
// journal settle record, and participants collect their shares through
// the idempotent claims ledger (POST /v1/campaigns/{id}/claims; a
// double claim answers 409).
// GET .../epochs lists the settled epochs with claimed/unclaimed
// accounting; POST .../epochs/settle settles one on demand, so
// settlement works as a pure operator action without the ticker too.
//
// With -role=follower the daemon is a read replica of another itreed:
// it bootstraps every campaign from the primary's replication snapshot
// endpoint, tails its journal stream, and serves reads that carry an
// X-Itree-Staleness header and are rejected with 503 once staleness
// exceeds -max-staleness. Writes answer 307 with a Location on the
// primary. Followers keep no disk state (-data-dir is rejected); on
// restart they re-bootstrap. See internal/replica for the protocol.
//
// Beyond the API, the daemon serves GET /metrics (Prometheus text
// exposition: per-route latency histograms, journal counters,
// per-campaign domain gauges, and store checkpoint counters). With -debug-addr set, net/http/pprof and expvar
// are served on a separate listener so profiling endpoints are never
// exposed on the public address.
//
// On SIGINT/SIGTERM the daemon stops accepting connections, drains
// in-flight requests (up to 10s), checkpoints every campaign, and only
// then closes the journals, so a shutdown can never tear a write-ahead
// log mid-append. A torn journal tail left by a hard crash is tolerated
// at startup: complete events are recovered, the torn record is
// truncated away, and the repair is counted on the
// itree_journal_torn_tails_total metric.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"incentivetree/internal/core"
	"incentivetree/internal/experiments"
	"incentivetree/internal/journal"
	"incentivetree/internal/obs"
	"incentivetree/internal/replica"
	"incentivetree/internal/server"
	"incentivetree/internal/store"
)

// shutdownTimeout bounds how long in-flight requests may drain after a
// termination signal.
const shutdownTimeout = 10 * time.Second

func main() {
	d, err := setup(os.Args[1:], os.Stdout)
	if err != nil {
		log.Fatal(err)
	}
	defer d.cleanup()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, d, os.Stdout); err != nil {
		d.cleanup()
		log.Fatal(err)
	}
}

// daemon is the fully configured serving state produced by setup.
type daemon struct {
	store     *store.Store
	server    *server.Server // the default campaign's deployment
	handler   http.Handler   // API + /metrics
	addr      string
	debugAddr string // "" = no debug listener
	// cleanup checkpoints and closes every journal; call only after the
	// HTTP server has drained.
	cleanup func()
	// listening, if set, receives each bound address (tests use it to
	// learn the port of ":0" listeners).
	listening func(network, addr string)
	// replicator tails the primary when the daemon runs as a follower
	// (nil on a primary).
	replicator *replica.Manager
}

// setupFollower builds the read-replica variant of the daemon: a
// follower-mode store populated by a replica.Manager, wrapped in the
// staleness-enforcing middleware.
func setupFollower(cfg store.Config, primary string, maxStaleness time.Duration, addr, debugAddr string, reg *obs.Registry, stdout io.Writer) (*daemon, error) {
	cfg.DataDir = ""
	cfg.Follower = true
	st, err := store.Open(cfg)
	if err != nil {
		return nil, err
	}
	mgr, err := replica.NewManager(replica.Options{
		Primary:      primary,
		Target:       st,
		Registry:     reg,
		MaxStaleness: maxStaleness,
	})
	if err != nil {
		st.Close()
		return nil, err
	}
	root := http.NewServeMux()
	root.Handle("/", mgr.Handler(st.Handler()))
	root.Handle("GET /metrics", reg.Handler())
	fmt.Fprintf(stdout, "itreed: follower of %s (max staleness %s) on %s\n", primary, maxStaleness, addr)
	return &daemon{
		store:      st,
		handler:    root,
		addr:       addr,
		debugAddr:  debugAddr,
		replicator: mgr,
		cleanup: func() {
			if err := st.Close(); err != nil {
				fmt.Fprintf(stdout, "itreed: store close: %v\n", err)
			}
		},
	}, nil
}

// setup parses flags, recovers state from disk (if any), and returns
// the configured daemon ready to serve.
func setup(args []string, stdout io.Writer) (*daemon, error) {
	fs := flag.NewFlagSet("itreed", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	debugAddr := fs.String("debug-addr", "",
		"optional listen address for net/http/pprof and expvar (e.g. localhost:6060)")
	mech := fs.String("mechanism", "tdrm",
		"default-campaign mechanism: "+strings.Join(experiments.MechanismNames(), ", "))
	phi := fs.Float64("phi", 0.5, "budget fraction Phi")
	fair := fs.Float64("fair", 0.05, "fairness floor phi")
	seed := fs.String("seed", "", "comma-separated names of organic seed participants (default campaign)")
	dataDir := fs.String("data-dir", "",
		"data directory for multi-campaign persistence (journals, snapshots); enables checkpointing")
	cpInterval := fs.Duration("checkpoint-interval", store.DefaultCheckpointEvery,
		"periodic checkpoint cadence; <0 disables periodic checkpoints")
	cpBytes := fs.Int64("checkpoint-bytes", store.DefaultCheckpointBytes,
		"checkpoint a campaign once its journal exceeds this many bytes; <0 disables the size trigger")
	syncPolicy := fs.String("journal-sync", string(journal.SyncOS),
		"journal durability: os (page cache), interval (fsync inside an append once -journal-sync-interval has passed; "+
			"the tail of a burst stays unsynced until the next append, checkpoint or shutdown), always (fsync per event)")
	syncEvery := fs.Duration("journal-sync-interval", time.Second,
		"flush period under -journal-sync=interval")
	batchMax := fs.Int("batch-max", server.DefaultBatchMax,
		"max writes per group commit; 1 = commit per event in arrival order")
	queueDepth := fs.Int("queue-depth", server.DefaultQueueDepth,
		"per-campaign write queue bound; a full queue sheds writes with 429")
	auditInterval := fs.Duration("audit-interval", 0,
		"per-campaign Sybil audit scan cadence (0 disables the audit service)")
	auditQuarantine := fs.Bool("audit-quarantine", false,
		"let the auditor auto-quarantine quarantine-grade findings (ε-chains, star bursts); otherwise it only reports")
	epochInterval := fs.Duration("epoch-interval", 0,
		"per-campaign payout epoch settlement cadence (0 disables the ticker; POST .../epochs/settle still works)")
	role := fs.String("role", "primary",
		"primary (serve writes, publish replication) or follower (read replica of -primary)")
	primaryURL := fs.String("primary", "",
		"base URL of the primary to replicate from (required with -role=follower)")
	maxStaleness := fs.Duration("max-staleness", 5*time.Second,
		"follower read bound: reads answer 503 once replica staleness exceeds this (0 disables)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	switch *role {
	case "primary":
		if *primaryURL != "" {
			return nil, errors.New("-primary is only meaningful with -role=follower")
		}
	case "follower":
		if *primaryURL == "" {
			return nil, errors.New("-role=follower requires -primary")
		}
		if *dataDir != "" {
			return nil, errors.New("a follower keeps no disk state: -data-dir is not allowed with -role=follower")
		}
		if *seed != "" {
			return nil, errors.New("a follower is read-only: -seed is not allowed with -role=follower")
		}
		if *maxStaleness < 0 {
			return nil, errors.New("-max-staleness must be >= 0")
		}
		if *auditInterval > 0 {
			return nil, errors.New("a follower does not audit: the primary's quarantine decisions replicate; -audit-interval is not allowed with -role=follower")
		}
		if *epochInterval > 0 {
			return nil, errors.New("a follower does not settle: the primary's settle records replicate; -epoch-interval is not allowed with -role=follower")
		}
	default:
		return nil, fmt.Errorf("unknown -role %q (want primary or follower)", *role)
	}
	policy, err := journal.ParseSyncPolicy(*syncPolicy)
	if err != nil {
		return nil, err
	}

	params := core.Params{Phi: *phi, FairShare: *fair}
	reg := obs.Default()
	newMechanism := func(name string, p core.Params) (core.Mechanism, error) {
		m, err := experiments.ByName(p, name)
		if err != nil {
			return nil, err
		}
		return experiments.Instrumented(m, reg), nil
	}
	// Validate the default mechanism/params up front for a crisp error.
	if _, err := newMechanism(*mech, params); err != nil {
		return nil, err
	}

	cfg := store.Config{
		DataDir:            *dataDir,
		CheckpointInterval: *cpInterval,
		CheckpointBytes:    *cpBytes,
		Sync:               policy,
		SyncInterval:       *syncEvery,
		BatchMax:           *batchMax,
		QueueDepth:         *queueDepth,
		AuditInterval:      *auditInterval,
		AuditQuarantine:    *auditQuarantine,
		EpochInterval:      *epochInterval,
		Metrics:            reg,
		NewMechanism:       newMechanism,
		DefaultMechanism:   *mech,
		DefaultParams:      params,
	}

	if *role == "follower" {
		return setupFollower(cfg, *primaryURL, *maxStaleness, *addr, *debugAddr, reg, stdout)
	}

	st, err := store.Open(cfg)
	if err != nil {
		return nil, err
	}
	cleanup := func() {
		if err := st.Close(); err != nil {
			fmt.Fprintf(stdout, "itreed: store close: %v\n", err)
		}
	}

	def, _ := st.Get(store.DefaultID)
	s := def.Server()
	if *seed != "" {
		for _, name := range strings.Split(*seed, ",") {
			if err := s.Join(strings.TrimSpace(name), ""); err != nil {
				cleanup()
				return nil, fmt.Errorf("seed %q: %w", name, err)
			}
		}
	}

	root := http.NewServeMux()
	root.Handle("/", st.Handler())
	root.Handle("GET /metrics", reg.Handler())

	mname := def.Meta.Mechanism
	if m, err := newMechanism(*mech, params); err == nil {
		mname = m.Name()
	}
	if *dataDir != "" {
		fmt.Fprintf(stdout, "itreed: %d campaign(s) under %s\n", st.Len(), *dataDir)
	}
	fmt.Fprintf(stdout, "itreed: serving %s on %s\n", mname, *addr)
	return &daemon{
		store:     st,
		server:    s,
		handler:   root,
		addr:      *addr,
		debugAddr: *debugAddr,
		cleanup:   cleanup,
	}, nil
}

// run serves the daemon until ctx is cancelled (SIGINT/SIGTERM in
// production), then drains in-flight requests before returning. The
// caller closes the store afterwards. The background checkpointer runs
// for the lifetime of ctx.
func run(ctx context.Context, d *daemon, stdout io.Writer) error {
	go d.store.Run(ctx)
	if d.replicator != nil {
		go d.replicator.Run(ctx)
	}
	srv := &http.Server{
		Handler:           d.handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 2)
	if err := serveListener(ctx, srv, "api", d.addr, d.listening, stdout, errc); err != nil {
		return err
	}

	var debug *http.Server
	if d.debugAddr != "" {
		debug = &http.Server{
			Handler:           debugHandler(),
			ReadHeaderTimeout: 5 * time.Second,
		}
		if err := serveListener(ctx, debug, "debug", d.debugAddr, d.listening, stdout, errc); err != nil {
			return err
		}
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(stdout, "itreed: shutting down (draining up to %s)\n", shutdownTimeout)
	sctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	err := srv.Shutdown(sctx)
	if debug != nil {
		if derr := debug.Shutdown(sctx); err == nil {
			err = derr
		}
	}
	if err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Fprintln(stdout, "itreed: drained")
	return nil
}

// serveListener binds addr and serves srv on it in the background,
// reporting serve failures on errc. The bound address is printed (it
// differs from addr for ":0" listeners; scripts parse this line to
// find the port).
func serveListener(ctx context.Context, srv *http.Server, name, addr string, listening func(string, string), stdout io.Writer, errc chan<- error) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("%s listen %s: %w", name, addr, err)
	}
	srv.BaseContext = func(net.Listener) context.Context { return ctx }
	fmt.Fprintf(stdout, "itreed: %s listening on %s\n", name, ln.Addr())
	if listening != nil {
		listening(name, ln.Addr().String())
	}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- fmt.Errorf("%s serve: %w", name, err)
		}
	}()
	return nil
}

// debugHandler serves pprof and expvar. It is only ever bound to
// -debug-addr, keeping profiling off the public listener.
func debugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}
