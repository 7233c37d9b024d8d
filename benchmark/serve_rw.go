package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	support "repro"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/server"
)

// readerRound is the reader's request cycle: 24 evaluations (edge, path and
// star in turn) and then one /v1/mine.
const readerRound = 25

// serveRW is the HTTP front door under a read/write mix: an in-process
// gserved handler behind httptest over a 2000-vertex graph, closed loop, two
// connections. The reader evaluates edge, path and star (streaming MNI and
// occurrence count, parallelism 1) and mines on every 25th request; the
// writer alternates /v1/mutate (four edge additions, and the removal of the
// four added two rounds before, so the graph stays the same size) with a
// refresh of its warm session. One op is one HTTP request. Engine work per
// request is small, so admission control, JSON decode/encode and the
// engine's lock and epoch hand-off are visible.
type serveRW struct {
	cfg     *config
	n       int
	mine    server.MineWire
	text    []byte
	edges   map[[2]int]bool // the writer's view of the edge set
	eng     *support.Engine
	srv     *server.Server
	ts      *httptest.Server
	session string

	evalReqs [3]server.EvaluateRequest
	evalBody [3][]byte
	mineBody []byte

	rng    *gen.RNG
	rounds [][][2]int // the writer's additions, per mutate, oldest first

	mu            sync.Mutex
	responseBytes int
	requests      int
	meter         *meter
	refreshMeter  *meter
	scrapeMs      float64
	scrapeBytes   int
}

func newServeRW(cfg *config) *serveRW {
	s := &serveRW{cfg: cfg, n: 2000, meter: newMeter(), refreshMeter: newMeter()}
	if cfg.short {
		s.n = 200
	}
	s.mine = server.MineWire{MinSupport: float64(s.n / 20), MaxPatternSize: 3, Options: &server.OptionsWire{Parallelism: 1}}
	return s
}

// patternLG renders a pattern as the .lg text the wire format carries.
func patternLG(p *pattern.Pattern) (string, error) {
	var buf bytes.Buffer
	if err := dataset.WriteLG(&buf, p.Graph()); err != nil {
		return "", err
	}
	return buf.String(), nil
}

func (s *serveRW) generate() error {
	g := renumber(gen.BarabasiAlbert(s.n, 2, gen.UniformLabels{K: 3}, dataSeed), s.cfg.seed)
	var err error
	if s.text, err = lgText(g); err != nil {
		return err
	}
	s.edges = map[[2]int]bool{}
	for _, e := range g.Edges() {
		e = e.Normalize()
		s.edges[[2]int{int(e.U), int(e.V)}] = true
	}
	opts := &server.OptionsWire{Parallelism: 1, Streaming: true}
	for k, p := range []*pattern.Pattern{patEdge, patPath, patStar} {
		lg, err := patternLG(p)
		if err != nil {
			return err
		}
		s.evalReqs[k] = server.EvaluateRequest{Pattern: server.PatternWire{LG: lg}, Measures: []string{"MNI", "occurrences"}, Options: opts}
		if s.evalBody[k], err = json.Marshal(s.evalReqs[k]); err != nil {
			return err
		}
	}
	s.mineBody, err = json.Marshal(s.mine)
	return err
}

// setup is what gserved does before it serves, plus the client's session:
// parse and freeze the graph, start the server, open the warm session.
func (s *serveRW) setup() error {
	g, err := parseLG(s.text, "serve-rw")
	if err != nil {
		return err
	}
	if s.eng, err = support.NewEngine(g, support.EngineOptions{}); err != nil {
		return err
	}
	s.srv = server.New(s.eng, server.Config{})
	s.ts = httptest.NewServer(s.srv.Handler())
	body, err := json.Marshal(server.OpenSessionRequest{Mine: s.mine})
	if err != nil {
		return err
	}
	var sr server.SessionResponse
	if _, err := s.post(s.ts.Client(), "/v1/sessions", body, &sr); err != nil {
		return err
	}
	s.session = sr.Session
	s.rng = gen.NewRNG(s.cfg.seed)
	s.rounds = nil
	return nil
}

func (s *serveRW) teardown() {
	if s.ts != nil {
		s.ts.Close()
		s.ts = nil
	}
	if s.srv != nil {
		s.srv.Close()
		s.srv = nil
	}
	s.eng = nil
}

func (s *serveRW) setupRepeats() int { return 9 }

func (s *serveRW) prepareTrace() error { return nil }

// post issues one POST and decodes a 200 body into out. It returns the body.
func (s *serveRW) post(c *http.Client, path string, body []byte, out any) ([]byte, error) {
	resp, err := c.Post(s.ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return raw, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return raw, fmt.Errorf("%s: %w", path, err)
		}
	}
	s.mu.Lock()
	s.responseBytes += len(raw)
	s.requests++
	s.mu.Unlock()
	return raw, nil
}

// epochOf reads the epoch of any /v1 response body.
type epochOf struct {
	Epoch  uint64 `json:"epoch"`
	Result struct {
		Epoch uint64 `json:"epoch"`
	} `json:"result"`
}

// conn is one closed-loop connection: its own client, and the highest epoch
// it has seen, which no later response may fall below.
type conn struct {
	client *http.Client
	epoch  uint64
}

// newConn returns a connection with a transport of its own, so the two
// load-generating goroutines never share a TCP connection.
func newConn() *conn {
	return &conn{client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
}

// request issues one timed request on the connection and checks status and
// epoch monotonicity.
func (s *serveRW) request(c *conn, path string, body []byte) (float64, bool) {
	var e epochOf
	t := time.Now()
	_, err := s.post(c.client, path, body, &e)
	ms := msSince(t)
	epoch := max(e.Epoch, e.Result.Epoch)
	ok := err == nil && epoch >= c.epoch
	c.epoch = max(c.epoch, epoch)
	return ms, ok
}

// nextMutate draws the writer's next batch: four additions of edges the
// graph does not have, and the removal of the four added two rounds before.
func (s *serveRW) nextMutate() ([]byte, error) {
	req := server.MutateRequest{}
	for len(req.AddEdges) < 4 {
		u, v := s.rng.Intn(s.n), s.rng.Intn(s.n)
		if u > v {
			u, v = v, u
		}
		if u == v || s.edges[[2]int{u, v}] {
			continue
		}
		s.edges[[2]int{u, v}] = true
		req.AddEdges = append(req.AddEdges, [2]int{u, v})
	}
	s.rounds = append(s.rounds, req.AddEdges)
	if len(s.rounds) > 2 {
		req.RemoveEdges = s.rounds[0]
		s.rounds = s.rounds[1:]
		for _, e := range req.RemoveEdges {
			delete(s.edges, e)
		}
	}
	return json.Marshal(req)
}

// readerPath returns the reader's i-th request.
func (s *serveRW) readerPath(i int) (string, []byte, int) {
	if i%readerRound == readerRound-1 {
		return "/v1/mine", s.mineBody, -1
	}
	return "/v1/evaluate", s.evalBody[i%3], i % 3
}

func (s *serveRW) warm() error {
	c := newConn()
	defer c.client.CloseIdleConnections()
	for i := 0; i < readerRound; i++ {
		path, body, _ := s.readerPath(i)
		if _, ok := s.request(c, path, body); !ok {
			return fmt.Errorf("serve-rw: warm-up %s failed", path)
		}
	}
	for i := 0; i < 6; i++ {
		if _, ok := s.writerRequest(c, i); !ok {
			return fmt.Errorf("serve-rw: warm-up writer request %d failed", i)
		}
	}
	return nil
}

// writerRequest issues the writer's i-th request: mutate, then refresh.
func (s *serveRW) writerRequest(c *conn, i int) (float64, bool) {
	if i%2 == 1 {
		return s.request(c, "/v1/sessions/"+s.session+"/refresh", nil)
	}
	body, err := s.nextMutate()
	if err != nil {
		return 0, false
	}
	return s.request(c, "/v1/mutate", body)
}

// both runs the reader and the writer loops side by side and waits for them.
func (s *serveRW) both(reader, writer func(c *conn)) {
	var wg sync.WaitGroup
	for _, loop := range []func(c *conn){reader, writer} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newConn()
			defer c.client.CloseIdleConnections()
			loop(c)
		}()
	}
	wg.Wait()
}

func (s *serveRW) run(w *window) {
	s.both(
		func(c *conn) {
			w.loop(readerRound, 5.0/6, func(i int) (float64, bool) {
				path, body, _ := s.readerPath(i)
				return s.request(c, path, body)
			})
		},
		func(c *conn) {
			w.loop(2, 1.0/6, func(i int) (float64, bool) { return s.writerRequest(c, i) })
		})
}

// runTraced puts a span around every HTTP round trip and, for the reader's
// requests, sends the same request through the server's API in process, so
// that transport (HTTP, JSON, handler) separates from engine time.
func (s *serveRW) runTraced(w *window, tr *tracer) {
	s.meter.around(func() {
		s.both(
			func(c *conn) {
				w.loop(readerRound, 5.0/6, func(i int) (float64, bool) {
					path, body, k := s.readerPath(i)
					var ok bool
					t := time.Now()
					tr.span(0, i, "harness.op", func(op int) {
						if k < 0 {
							tr.span(op, i, "server.mine", func(int) { _, ok = s.request(c, path, body) })
							tr.span(op, i, "support.inprocess_mine", func(int) {
								if _, err := s.srv.Mine(context.Background(), &s.mine); err != nil {
									ok = false
								}
							})
							return
						}
						tr.span(op, i, "server.evaluate", func(int) { _, ok = s.request(c, path, body) })
						tr.span(op, i, "support.inprocess_evaluate", func(int) {
							if _, err := s.srv.Evaluate(context.Background(), &s.evalReqs[k]); err != nil {
								ok = false
							}
						})
					})
					return msSince(t), ok
				})
			},
			func(c *conn) {
				w.loop(2, 1.0/6, func(i int) (float64, bool) {
					var ms float64
					var ok bool
					// Writer ops are numbered apart from the reader's.
					op := 1_000_000 + i
					tr.span(0, op, "harness.op", func(id int) {
						if i%2 == 0 {
							tr.span(id, op, "server.mutate", func(int) { ms, ok = s.writerRequest(c, i) })
							return
						}
						s.refreshMeter.around(func() {
							tr.span(id, op, "server.refresh", func(int) { ms, ok = s.writerRequest(c, i) })
						})
					})
					return ms, ok
				})
			})
	})
}

// finish checks, with both loops stopped, that an evaluate body served over
// HTTP is byte-identical to the in-process answer, and prices one scrape of
// the live metrics registry.
func (s *serveRW) finish() (int, error) {
	// Materialised this time, with the polynomial measures; the default set's
	// exact solvers take tens of seconds on this graph.
	req := server.EvaluateRequest{Pattern: s.evalReqs[1].Pattern, Measures: []string{"MNI", "MI", "occurrences", "instances"}}
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	c := newConn()
	defer c.client.CloseIdleConnections()
	got, err := s.post(c.client, "/v1/evaluate", body, nil)
	if err != nil {
		return 1, nil
	}
	resp, err := s.srv.Evaluate(context.Background(), &req)
	if err != nil {
		return 0, err
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(resp); err != nil {
		return 0, err
	}
	failed := 0
	if !bytes.Equal(got, want.Bytes()) {
		failed++
	}
	var scrape bytes.Buffer
	t := time.Now()
	if err := obs.WritePrometheus(&scrape, obs.Default); err != nil {
		return failed, err
	}
	s.scrapeMs, s.scrapeBytes = msSince(t), scrape.Len()
	return failed, nil
}

func (s *serveRW) layerMetrics(tr *tracer, out map[string]float64) float64 {
	out["server.evaluate_p50_ms"] = tr.medianMs("server.evaluate")
	out["server.mine_p50_ms"] = tr.medianMs("server.mine")
	out["server.mutate_p50_ms"] = tr.medianMs("server.mutate")
	out["server.refresh_p50_ms"] = tr.medianMs("server.refresh")
	httpEval, _ := tr.perOp("server.evaluate")
	inEval, _ := tr.perOp("support.inprocess_evaluate")
	var transport []float64
	for k := range min(len(httpEval), len(inEval)) {
		transport = append(transport, httpEval[k]-inEval[k])
	}
	transportMs := median(transport)
	out["server.transport_us"] = transportMs * 1e3
	out["server.admission_wait_ms"] = s.meter.histMean("repro_server_admission_wait_seconds") * 1e3
	out["server.http_errors"] = s.meter.counters["repro_server_http_errors_total"]
	if s.requests > 0 {
		out["server.response_bytes"] = float64(s.responseBytes) / float64(s.requests)
	}
	out["support.do_evaluate_ms"] = tr.medianMs("support.inprocess_evaluate")
	out["support.do_mine_ms"] = tr.medianMs("support.inprocess_mine")
	out["support.session_refresh_ms"] = s.refreshMeter.histMean("repro_session_refresh_seconds") * 1e3
	out["miner.refresh_ms"] = out["support.session_refresh_ms"]
	out["support.phase_enumerate_ms"] = s.meter.histMean("repro_engine_enumerate_seconds") * 1e3
	out["support.phase_aggregate_ms"] = s.meter.histMean("repro_engine_aggregate_seconds") * 1e3
	out["support.phase_mine_ms"] = s.meter.histMean("repro_engine_mine_seconds") * 1e3
	out["obs.scrape_ms"] = s.scrapeMs
	out["obs.scrape_bytes"] = float64(s.scrapeBytes)

	// Attribution: a reader request is its in-process replay (engine) plus
	// the rest (server). The writer's requests cannot be replayed, so they
	// are charged the median transport as server time; a refresh's engine
	// time is the session-refresh histogram, and what is left of a mutate is
	// Engine.Update.
	_, nMutate := tr.perOp("server.mutate")
	_, nRefresh := tr.perOp("server.refresh")
	readerHTTP := tr.totalMs("server.evaluate") + tr.totalMs("server.mine")
	inproc := tr.totalMs("support.inprocess_evaluate") + tr.totalMs("support.inprocess_mine")
	refreshEngine := s.refreshMeter.histSum["repro_session_refresh_seconds"] * 1e3
	var sh shares
	sh.total = readerHTTP + tr.totalMs("server.mutate") + tr.totalMs("server.refresh")
	sh.add("server", readerHTTP-inproc+transportMs*float64(nMutate+nRefresh))
	sh.add("miner", refreshEngine)
	sh.add("support", inproc)
	sh.add("support", tr.totalMs("server.mutate")-transportMs*float64(nMutate))
	sh.add("support", tr.totalMs("server.refresh")-refreshEngine-transportMs*float64(nRefresh))
	sh.fill(out)
	var real []float64
	for _, name := range []string{"server.evaluate", "server.mine", "server.mutate", "server.refresh"} {
		ms, _ := tr.perOp(name)
		real = append(real, ms...)
	}
	return median(real)
}
