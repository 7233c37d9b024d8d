package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	support "repro"
	"repro/internal/obs"
)

// Config bounds what the serving layer admits. The zero value picks the
// documented defaults; explicit negatives mean unlimited where noted.
type Config struct {
	// MaxMineInFlight bounds concurrent mining jobs (one-shot mines plus
	// session opens and refreshes); excess requests queue. Zero means
	// DefaultMaxMineInFlight, negative means unlimited. Evaluation requests
	// are not gated — they are orders of magnitude cheaper.
	MaxMineInFlight int
	// MaxParallelism caps the enumeration worker count any single request may
	// use, whatever it asks for; zero means DefaultMaxParallelism (GOMAXPROCS),
	// negative means unclamped.
	MaxParallelism int
	// MaxSessions caps live warm mining sessions. Zero means
	// DefaultMaxSessions, negative means unlimited.
	MaxSessions int
	// SessionIdleTTL evicts sessions unused for this long. Zero means
	// DefaultSessionIdleTTL, negative disables eviction.
	SessionIdleTTL time.Duration
	// SlowQuery is the slow-query threshold: a /v1 request whose handler
	// takes at least this long is logged (with its span tree, and for
	// evaluations the chosen search plan) through Logger. Zero disables
	// slow-query logging.
	SlowQuery time.Duration
	// Logger receives the server's structured records — above all the
	// slow-query log. Nil means slog.Default().
	Logger *slog.Logger
}

// The admission defaults applied for zero Config fields.
const (
	// DefaultMaxMineInFlight is the default bound on concurrent mining jobs.
	DefaultMaxMineInFlight = 4
	// DefaultMaxSessions is the default cap on live mining sessions.
	DefaultMaxSessions = 64
	// DefaultSessionIdleTTL is the default idle eviction horizon.
	DefaultSessionIdleTTL = 15 * time.Minute
)

// withDefaults resolves the zero-value fields to the documented defaults.
func (c Config) withDefaults() Config {
	if c.MaxMineInFlight == 0 {
		c.MaxMineInFlight = DefaultMaxMineInFlight
	}
	if c.MaxParallelism == 0 {
		c.MaxParallelism = runtime.GOMAXPROCS(0)
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = DefaultMaxSessions
	}
	if c.SessionIdleTTL == 0 {
		c.SessionIdleTTL = DefaultSessionIdleTTL
	}
	return c
}

// Server serves one long-lived support.Engine to many concurrent clients. Its
// request methods are the remote-procedure shape of the engine — Evaluate,
// Mine, Mutate and Stats the stateless half (support.Engine.Do and
// Engine.Update), OpenSession, RefreshSession and CloseSession the stateful
// one (Engine.OpenSession: warm mining sessions with server-side incremental
// state) — and Handler exposes them over HTTP/JSON as one thin transport. One
// process, one engine, one frozen snapshot per epoch — shared by every client
// instead of re-loaded per run.
type Server struct {
	eng *support.Engine
	cfg Config
	// source labels the engine's data source for Stats ("graph", "snapshot"
	// or "store").
	source string

	sessions *sessionManager
	// mineSem is the admission semaphore for mining jobs; nil when
	// unlimited.
	mineSem chan struct{}
	// mineInFlight counts currently admitted mining jobs for Stats.
	mineInFlight atomic.Int64
	// log is the resolved Config.Logger.
	log *slog.Logger
	// now is the clock; tests override it to drive idle eviction.
	now func() time.Time
}

// New returns a server over an already-constructed engine. The engine's
// lifetime belongs to the caller (Close the server first, then the engine).
func New(eng *support.Engine, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		eng:      eng,
		cfg:      cfg,
		source:   engineSource(eng),
		sessions: newSessionManager(cfg.MaxSessions),
		log:      cfg.Logger,
		now:      time.Now, //gvet:ignore determinism injected session-TTL clock; timestamps gate eviction and never enter response bodies
	}
	if s.log == nil {
		s.log = slog.Default()
	}
	if cfg.MaxMineInFlight > 0 {
		s.mineSem = make(chan struct{}, cfg.MaxMineInFlight)
	}
	return s
}

// engineSource classifies the engine's data source for Stats.
func engineSource(eng *support.Engine) string {
	if _, ok := eng.Residency(); ok {
		return "store"
	}
	if _, _, ok := eng.Durable(); ok {
		return "durable"
	}
	if eng.Mutable() {
		return "graph"
	}
	return "snapshot"
}

// Engine returns the engine the server serves.
func (s *Server) Engine() *support.Engine { return s.eng }

// Close releases the server's sessions. The engine is left open — it belongs
// to the caller.
func (s *Server) Close() { s.sessions.closeAll() }

// EvictIdleSessions closes every session idle for longer than the configured
// TTL and returns how many were evicted. cmd/gserved calls this from a
// janitor ticker; tests call it directly with a shifted clock.
func (s *Server) EvictIdleSessions() int {
	if s.cfg.SessionIdleTTL < 0 {
		return 0
	}
	n := s.sessions.evictIdle(s.now().Add(-s.cfg.SessionIdleTTL))
	mSessionsEvicted.Add(uint64(n))
	return n
}

// admitMine blocks until the mining admission semaphore grants a slot and
// returns the release function. The wait — zero on the uncontended path — is
// observed into the admission-wait histogram.
func (s *Server) admitMine() func() {
	if s.mineSem == nil {
		s.mineInFlight.Add(1)
		return func() { s.mineInFlight.Add(-1) }
	}
	t := obs.StartTimer()
	s.mineSem <- struct{}{}
	t.ObserveInto(mAdmissionWait)
	s.mineInFlight.Add(1)
	return func() {
		s.mineInFlight.Add(-1)
		<-s.mineSem
	}
}

// Evaluate computes support measures for one pattern on the current epoch,
// snapshot-pinned (never blocked by writers). The context carries
// observability (an attached obs.Trace collects per-phase spans); it does not
// cancel the request.
func (s *Server) Evaluate(ctx context.Context, req *EvaluateRequest) (*EvaluateResponse, error) {
	p, err := req.Pattern.Pattern()
	if err != nil {
		return nil, badRequest(err)
	}
	resp, err := s.eng.DoContext(ctx, &support.Request{
		Pattern:  p,
		Measures: req.Measures,
		Explain:  req.Explain,
		Options:  engineOptions(s.eng.Options(), req.Options, s.cfg.MaxParallelism),
	})
	if err != nil {
		return nil, badRequest(err)
	}
	return encodeEvaluation(resp), nil
}

// Mine runs one admission-gated frequent-pattern mining job on the current
// epoch.
func (s *Server) Mine(ctx context.Context, req *MineWire) (*MineResponse, error) {
	spec, err := req.MineSpec()
	if err != nil {
		return nil, badRequest(err)
	}
	spec.Workers = clampParallelism(spec.Workers, s.cfg.MaxParallelism)
	release := s.admitMine()
	defer release()
	resp, err := s.eng.DoContext(ctx, &support.Request{
		Mine:    spec,
		Options: engineOptions(s.eng.Options(), req.Options, s.cfg.MaxParallelism),
	})
	if err != nil {
		return nil, badRequest(err)
	}
	return encodeMining(resp.Epoch, resp.Mining), nil
}

// Mutate applies a batch of vertex/edge additions and removals, then
// refreezes and hands off a new snapshot epoch. Duplicate vertices (same
// label), duplicate edges and absent removal targets are skipped, not errors,
// so clients can replay batches idempotently — and a skipped mutation never
// touches the graph, so it dirties no shard and reaches no mutation feed.
// Conflicting labels, self loops and dangling edges fail the batch (mutations
// applied before the failure are still published, as Engine.Update
// documents).
func (s *Server) Mutate(ctx context.Context, req *MutateRequest) (*MutateResponse, error) {
	out := &MutateResponse{}
	epoch, err := s.eng.Update(func(g *support.Graph) error {
		for _, vw := range req.AddVertices {
			id := support.VertexID(vw.ID)
			fresh := !g.HasVertex(id)
			if err := g.AddVertex(id, support.Label(vw.Label)); err != nil {
				return err
			}
			if fresh {
				out.AppliedVertices++
			}
		}
		for _, e := range req.AddEdges {
			u, v := support.VertexID(e[0]), support.VertexID(e[1])
			if g.HasEdge(u, v) {
				continue
			}
			if err := g.AddEdge(u, v); err != nil {
				return err
			}
			out.AppliedEdges++
		}
		for _, e := range req.RemoveEdges {
			u, v := support.VertexID(e[0]), support.VertexID(e[1])
			if !g.HasEdge(u, v) {
				continue
			}
			if err := g.RemoveEdge(u, v); err != nil {
				return err
			}
			out.RemovedEdges++
		}
		for _, id := range req.RemoveVertices {
			v := support.VertexID(id)
			if !g.HasVertex(v) {
				continue
			}
			if err := g.RemoveVertex(v); err != nil {
				return err
			}
			out.RemovedVertices++
		}
		return nil
	})
	if err != nil {
		return nil, badRequest(err)
	}
	out.Epoch = epoch
	return out, nil
}

// Stats describes the serving state (epoch, graph dimensions, load).
// Alongside the current-state fields it reports
// process-cumulative counts read from the metrics registry — monotone
// counters, never timings, so the response body stays free of wall-clock
// values (it is still load-dependent, unlike the epoch-deterministic /v1
// request bodies).
func (s *Server) Stats(ctx context.Context) (*StatsResponse, error) {
	snap, epoch := s.eng.Current()
	st := &StatsResponse{
		Epoch:            epoch,
		Source:           s.source,
		Name:             snap.Name(),
		Vertices:         snap.NumVertices(),
		Edges:            snap.NumEdges(),
		Shards:           snap.NumShards(),
		ShardSize:        snap.ShardSize(),
		Sessions:         s.sessions.count(),
		MineInFlight:     int(s.mineInFlight.Load()),
		PageIns:          obs.Default.CounterValue("repro_store_page_ins_total"),
		Evictions:        obs.Default.CounterValue("repro_store_evictions_total"),
		SessionsEvicted:  obs.Default.CounterValue("repro_server_sessions_evicted_total"),
		MutationsApplied: obs.Default.CounterValue("repro_graph_mutations_total"),
	}
	if rs, ok := s.eng.Residency(); ok {
		st.Residency = rs.String()
	}
	return st, nil
}

// OpenSession starts a warm mining session and returns its initial result.
// The initial result is refreshed under
// the engine's reader lock so the reported epoch is exactly the one the
// result corresponds to.
func (s *Server) OpenSession(ctx context.Context, req *OpenSessionRequest) (*SessionResponse, error) {
	spec, err := req.Mine.MineSpec()
	if err != nil {
		return nil, badRequest(err)
	}
	spec.Workers = clampParallelism(spec.Workers, s.cfg.MaxParallelism)
	release := s.admitMine()
	defer release()
	sess, err := s.eng.OpenSession(*spec)
	if err != nil {
		return nil, badRequest(err)
	}
	res, epoch, err := sess.Refresh()
	if err != nil {
		sess.Close()
		return nil, err
	}
	ms, err := s.sessions.open(sess, s.now())
	if err != nil {
		sess.Close()
		return nil, statusError{http.StatusTooManyRequests, err}
	}
	return &SessionResponse{
		Session: ms.id,
		Tracked: sess.TrackedPatterns(),
		Result:  *encodeMining(epoch, res),
	}, nil
}

// RefreshSession re-answers the named session's mining question on the
// current epoch from incrementally maintained state: one serialized,
// admission-gated refresh.
func (s *Server) RefreshSession(ctx context.Context, req *SessionRequest) (*SessionResponse, error) {
	ms, err := s.sessions.get(req.Session)
	if err != nil {
		return nil, statusError{http.StatusNotFound, err}
	}
	release := s.admitMine()
	defer release()
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if ms.closed {
		return nil, statusError{http.StatusNotFound, fmt.Errorf("server: unknown session %q", req.Session)}
	}
	res, epoch, err := ms.sess.Refresh()
	if err != nil {
		return nil, err
	}
	ms.touch(s.now())
	return &SessionResponse{
		Session: ms.id,
		Tracked: ms.sess.TrackedPatterns(),
		Result:  *encodeMining(epoch, res),
	}, nil
}

// CloseSession releases the named session's server-side state.
func (s *Server) CloseSession(ctx context.Context, req *SessionRequest) (*CloseSessionResponse, error) {
	if err := s.sessions.close(req.Session); err != nil {
		return nil, statusError{http.StatusNotFound, err}
	}
	return &CloseSessionResponse{Closed: req.Session}, nil
}

// statusError carries an HTTP status through the transport-agnostic API
// methods. Errors without one default to 500.
type statusError struct {
	code int
	err  error
}

// Error implements error.
func (e statusError) Error() string { return e.err.Error() }

// Unwrap exposes the wrapped error.
func (e statusError) Unwrap() error { return e.err }

// badRequest wraps a client-caused failure as HTTP 400.
func badRequest(err error) error { return statusError{http.StatusBadRequest, err} }

// Handler returns the server's HTTP/JSON surface:
//
//	POST   /v1/evaluate              EvaluateRequest  -> EvaluateResponse
//	POST   /v1/mine                  MineWire         -> MineResponse
//	POST   /v1/mutate                MutateRequest    -> MutateResponse
//	POST   /v1/sessions              OpenSessionRequest -> SessionResponse
//	POST   /v1/sessions/{id}/refresh (empty body)     -> SessionResponse
//	DELETE /v1/sessions/{id}         (empty body)     -> CloseSessionResponse
//	GET    /v1/stats                                  -> StatsResponse
//	GET    /v1/healthz                                -> "ok"
//	GET    /metrics                                   -> Prometheus text exposition
//
// Errors are an ErrorWire body with a 4xx/5xx status. Responses carry no
// timing fields: a body is a pure function of (request, epoch), which is how
// the tests compare remote answers byte-for-byte against in-process ones.
// All timing observability lives on the other side of that boundary — the
// /metrics exposition, the slow-query log, and per-request span trees.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/evaluate", func(w http.ResponseWriter, r *http.Request) {
		var req EvaluateRequest
		s.handleJSON(w, r, "evaluate", &req,
			func(ctx context.Context) (any, error) { return s.Evaluate(ctx, &req) },
			func() string { return s.explainFor(&req) })
	})
	mux.HandleFunc("POST /v1/mine", func(w http.ResponseWriter, r *http.Request) {
		var req MineWire
		s.handleJSON(w, r, "mine", &req,
			func(ctx context.Context) (any, error) { return s.Mine(ctx, &req) }, nil)
	})
	mux.HandleFunc("POST /v1/mutate", func(w http.ResponseWriter, r *http.Request) {
		var req MutateRequest
		s.handleJSON(w, r, "mutate", &req,
			func(ctx context.Context) (any, error) { return s.Mutate(ctx, &req) }, nil)
	})
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		var req OpenSessionRequest
		s.handleJSON(w, r, "session.open", &req,
			func(ctx context.Context) (any, error) { return s.OpenSession(ctx, &req) }, nil)
	})
	mux.HandleFunc("POST /v1/sessions/{id}/refresh", func(w http.ResponseWriter, r *http.Request) {
		req := SessionRequest{Session: r.PathValue("id")}
		s.handleJSON(w, r, "session.refresh", nil,
			func(ctx context.Context) (any, error) { return s.RefreshSession(ctx, &req) }, nil)
	})
	mux.HandleFunc("DELETE /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		req := SessionRequest{Session: r.PathValue("id")}
		s.handleJSON(w, r, "session.close", nil,
			func(ctx context.Context) (any, error) { return s.CloseSession(ctx, &req) }, nil)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		s.handleJSON(w, r, "stats", nil,
			func(ctx context.Context) (any, error) { return s.Stats(ctx) }, nil)
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = obs.WritePrometheus(w, obs.Default)
	})
	return mux
}

// handleJSON decodes the request body into req (skipped when nil), invokes
// the handler with a fresh trace attached to the context, and writes the
// JSON response or the mapped error. Requests that exceed the slow-query
// threshold are logged with their span tree; plan, when non-nil, lazily
// renders the chosen search plan for that log record (only ever invoked for
// a slow query, so its cost is off the fast path entirely).
func (s *Server) handleJSON(w http.ResponseWriter, r *http.Request, route string, req any, fn func(context.Context) (any, error), plan func() string) {
	mHTTPRequests.Inc()
	if req != nil {
		if err := decodeBody(w, r, req); err != nil {
			mHTTPErrors.Inc()
			writeError(w, err)
			return
		}
	}
	tr := obs.NewTrace(route)
	t := obs.StartTimer()
	resp, err := fn(obs.ContextWithTrace(r.Context(), tr))
	elapsed := t.ObserveInto(mRequestSeconds)
	tr.Finish()
	if s.cfg.SlowQuery > 0 && elapsed >= s.cfg.SlowQuery {
		s.logSlow(r, route, elapsed, tr, plan)
	}
	if err != nil {
		mHTTPErrors.Inc()
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// An encode failure here means the client hung up mid-body; there is no
	// useful recovery.
	_ = json.NewEncoder(w).Encode(resp)
}

// maxRequestBytes bounds a /v1 request body. It is far above any pattern,
// mining request or mutation batch a client sends, and only stops a body
// from growing without limit in the server's memory.
const maxRequestBytes = 8 << 20

// decodeBody decodes r's body into req: one JSON value with no unknown
// fields, followed by nothing but whitespace, within maxRequestBytes. A
// longer body is a 413 and anything else wrong with it a 400.
func decodeBody(w http.ResponseWriter, r *http.Request, req any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(req)
	if err == nil {
		switch _, tail := dec.Token(); tail {
		case io.EOF:
			return nil
		case nil:
			err = errors.New("trailing data after the request's JSON value")
		default:
			err = fmt.Errorf("trailing data after the request's JSON value: %w", tail)
		}
	}
	if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
		return statusError{http.StatusRequestEntityTooLarge, fmt.Errorf("decode: request body exceeds %d bytes", tooLarge.Limit)}
	}
	return statusError{http.StatusBadRequest, fmt.Errorf("decode: %w", err)}
}

// logSlow emits one structured slow-query record: route, latency, the
// request's span tree, and — for evaluations — the search plan the planner
// chose for the pattern.
func (s *Server) logSlow(r *http.Request, route string, elapsed time.Duration, tr *obs.Trace, plan func() string) {
	mSlowQueries.Inc()
	attrs := []any{
		slog.String("route", route),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Duration("elapsed", elapsed),
		slog.String("trace", tr.String()),
	}
	if plan != nil {
		if p := plan(); p != "" {
			attrs = append(attrs, slog.String("plan", p))
		}
	}
	s.log.Warn("slow query", attrs...)
}

// explainFor compiles the search plan an evaluate request's pattern gets on
// the current snapshot, for the slow-query log. Failures render as "" — the
// request itself already reported them.
func (s *Server) explainFor(req *EvaluateRequest) string {
	p, err := req.Pattern.Pattern()
	if err != nil {
		return ""
	}
	snap, _ := s.eng.Current()
	return support.ExplainPlan(snap, p).String()
}

// writeError maps an error onto its HTTP status (500 unless the handler
// attached one) with an ErrorWire body.
func writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	if se, ok := err.(statusError); ok {
		code = se.code
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(ErrorWire{Error: err.Error()})
}
