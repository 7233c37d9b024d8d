// Command gserved is the long-lived mining server: it opens a data source
// once — a .lg file or an out-of-core shard store — and serves support
// evaluation, frequent-pattern mining and warm incremental mining sessions
// to many concurrent clients over HTTP/JSON, all through one shared
// support.Engine and its snapshot epoch handoff.
//
// Usage:
//
//	gserved -graph data.lg -addr :8731
//	gserved -store ba.store -residency 25% -addr :8731
//	gserved -graph data.lg -max-mine 2 -max-sessions 16 -session-ttl 5m
//	gserved -persist data.db -graph seed.lg -commit-every 8
//	                 # durable source: mutations are WAL-logged before each
//	                 # epoch handoff and folded into the segment store every
//	                 # 8 updates; restart resumes exactly where clients left
//	                 # off, crash included (the WAL tail is replayed)
//	gserved -graph data.lg -slow-query 250ms -log-level debug
//	gserved -graph data.lg -pprof-addr localhost:6060
//
// Endpoints (JSON bodies; see internal/server):
//
//	POST   /v1/evaluate              support measures of one pattern
//	POST   /v1/mine                  one-shot frequent-pattern mining
//	POST   /v1/mutate                add vertices/edges, refreeze, new epoch
//	POST   /v1/sessions              open a warm mining session
//	POST   /v1/sessions/{id}/refresh incremental re-answer on the new epoch
//	DELETE /v1/sessions/{id}         close a session
//	GET    /v1/stats                 epoch, graph dimensions, load
//	GET    /v1/healthz               liveness probe
//	GET    /metrics                  Prometheus text exposition
//
// Logging is structured (log/slog, text format on stderr) at -log-level.
// Requests slower than -slow-query are logged with their span tree and, for
// evaluations, the chosen search plan. -pprof-addr serves net/http/pprof on
// a separate listener — keep it on localhost or behind a firewall.
//
// Quickstart:
//
//	gserved -graph data.lg &
//	curl -s localhost:8731/v1/evaluate \
//	     -d '{"pattern":{"edge":[1,2]},"measures":["MNI"]}'
//	curl -s localhost:8731/metrics | grep repro_engine
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	support "repro"
	"repro/internal/cliflags"
	"repro/internal/obs"
	"repro/internal/server"
)

// readHeaderTimeout bounds how long a connection may take to send its request
// headers, so a client that opens connections and stalls cannot hold them.
const readHeaderTimeout = 10 * time.Second

func main() {
	var (
		graphPath   = flag.String("graph", "", "path to the data graph in .lg format (mutable source: /v1/mutate and sessions work)")
		addr        = flag.String("addr", ":8731", "listen address")
		maxMine     = flag.Int("max-mine", 0, "bound on concurrently running mining jobs, one-shot and session alike (0 = default, negative = unlimited)")
		maxParallel = flag.Int("max-parallel", 0, "cap on per-request enumeration workers, whatever the request asks for (0 = GOMAXPROCS, negative = unclamped)")
		maxSessions = flag.Int("max-sessions", 0, "cap on live warm mining sessions (0 = default, negative = unlimited)")
		sessionTTL  = flag.Duration("session-ttl", 0, "evict sessions idle for this long (0 = default, negative = never)")
		persistDir  = flag.String("persist", "", "open (creating if needed) a durable store directory as a mutable data source: mutations are WAL-logged before each epoch and folded into the store incrementally; with -graph, an empty directory is seeded from the .lg file")
		commitEvery = flag.Int("commit-every", 16, "fold logged mutations of the -persist store into its segments every N updates (<=0 = only on shutdown or explicit persists)")
		logLevel    = flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
		slowQuery   = flag.Duration("slow-query", 0, "log requests slower than this with their span tree and chosen plan (0 = disabled)")
		pprofAddr   = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled; keep it loopback-only)")
	)
	fl := cliflags.Register(flag.CommandLine, cliflags.Enum, cliflags.Streaming, cliflags.Shards, cliflags.Store)
	flag.Parse()

	log, err := newLogger(*logLevel)
	if err != nil {
		fatal(err)
	}
	slog.SetDefault(log)

	var eng *support.Engine
	if *persistDir != "" {
		if fl.StorePath() != "" {
			fatal(fmt.Errorf("-persist and -store are mutually exclusive (-store serves read-only, -persist serves durable read-write)"))
		}
		eng, err = support.OpenDurableEngine(*persistDir, *commitEvery, fl.EngineOptions())
		if err == nil && *graphPath != "" {
			err = seedDurable(eng, *graphPath)
		}
	} else {
		eng, err = fl.Engine(func() (*support.Graph, error) {
			if *graphPath == "" {
				return nil, fmt.Errorf("one of -graph, -store or -persist is required")
			}
			return support.LoadLGFile(*graphPath)
		})
	}
	if err != nil {
		fatal(err)
	}
	defer eng.Close()

	srv := server.New(eng, server.Config{
		MaxMineInFlight: *maxMine,
		MaxParallelism:  *maxParallel,
		MaxSessions:     *maxSessions,
		SessionIdleTTL:  *sessionTTL,
		SlowQuery:       *slowQuery,
		Logger:          log,
	})
	defer srv.Close()

	snap, epoch := eng.Current()
	log.Info("serving",
		slog.String("graph", snap.Name()),
		slog.Int("vertices", snap.NumVertices()),
		slog.Int("edges", snap.NumEdges()),
		slog.Int("shards", snap.NumShards()),
		slog.Uint64("epoch", epoch),
		slog.String("addr", *addr))
	if depoch, pending, ok := eng.Durable(); ok {
		// The replay counters are process-cumulative; at startup they hold
		// exactly what OpenDB just replayed from the WAL tail.
		log.Info("recovered durable store",
			slog.String("dir", *persistDir),
			slog.Uint64("epoch", depoch),
			slog.Int("pending_mutations", pending),
			slog.Uint64("wal_replayed_batches", obs.Default.CounterValue("repro_wal_replayed_batches_total")),
			slog.Uint64("wal_replayed_mutations", obs.Default.CounterValue("repro_wal_replayed_mutations_total")))
	}

	if *pprofAddr != "" {
		// net/http/pprof registers its handlers on http.DefaultServeMux; the
		// profiling listener is separate from the serving one so profiles are
		// never exposed on the public address.
		go func() {
			log.Info("pprof listening", slog.String("addr", *pprofAddr))
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Error("pprof server failed", slog.String("error", err.Error()))
			}
		}()
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler(), ReadHeaderTimeout: readHeaderTimeout}

	// Janitor: evict idle sessions in the background until shutdown.
	janitorDone := make(chan struct{})
	go func() {
		defer close(janitorDone)
		t := time.NewTicker(time.Minute)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if n := srv.EvictIdleSessions(); n > 0 {
					log.Info("evicted idle sessions", slog.Int("count", n))
				}
			case <-janitorStop:
				return
			}
		}
	}()

	// Graceful shutdown on SIGINT/SIGTERM: stop accepting, let in-flight
	// requests finish, then close sessions and the engine via the defers.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		close(janitorStop)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shutdownCtx)
	}()

	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	<-janitorDone
	log.Info("shut down",
		slog.Uint64("epoch", eng.Epoch()),
		slog.Uint64("requests", obs.Default.CounterValue("repro_server_http_requests_total")))
}

// janitorStop ends the eviction ticker on shutdown.
var janitorStop = make(chan struct{})

// newLogger builds the process logger: slog text records on stderr at the
// named level.
func newLogger(level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch level {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn or error)", level)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})), nil
}

// seedDurable populates an empty durable engine from a .lg seed graph in
// one logged update followed by a durable commit. A store that already
// holds data is left untouched — the seed only matters on first boot.
func seedDurable(eng *support.Engine, path string) error {
	if snap, _ := eng.Current(); snap.NumVertices() > 0 {
		return nil
	}
	src, err := support.LoadLGFile(path)
	if err != nil {
		return err
	}
	if _, err := eng.Update(func(g *support.Graph) error {
		for _, v := range src.SortedVertices() {
			if err := g.AddVertex(v, src.MustLabelOf(v)); err != nil {
				return err
			}
		}
		for _, e := range src.Edges() {
			if err := g.AddEdge(e.U, e.V); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	_, err = eng.Persist()
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gserved:", err)
	os.Exit(1)
}
