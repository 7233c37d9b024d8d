package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	support "repro"
	"repro/internal/obs"
)

// TestMineStopsWhenClientGoes: a /v1/mine whose httptest client cancels the
// request mid-run stops at its next candidate — it counts no mine and
// searches fewer candidates than the whole run — and a request queued for a
// mining slot whose client leaves returns without ever taking the slot.
func TestMineStopsWhenClientGoes(t *testing.T) {
	eng, err := support.NewEngine(support.BarabasiAlbert(400, 2, 4, 3), support.EngineOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	mine := MineWire{MinSupport: 1, MaxPatternSize: 5}
	body, err := json.Marshal(mine)
	if err != nil {
		t.Fatal(err)
	}
	counter := obs.Default.CounterValue
	const drains, mines, requests = "repro_enum_shard_drains_total", "repro_engine_mines_total", "repro_server_http_requests_total"

	// The whole run, for the number of searches it makes.
	before := counter(drains)
	if _, err := New(eng, Config{}).Mine(context.Background(), &mine); err != nil {
		t.Fatal(err)
	}
	whole := counter(drains) - before

	s := New(eng, Config{MaxMineInFlight: 1})
	defer s.Close()
	handled := make(chan struct{}, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.Handler().ServeHTTP(w, r)
		handled <- struct{}{}
	}))
	defer ts.Close()
	post := func(ctx context.Context) <-chan error {
		errc := make(chan error, 1)
		go func() {
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/mine", bytes.NewReader(body))
			if err != nil {
				errc <- err
				return
			}
			resp, err := ts.Client().Do(req)
			if err == nil {
				resp.Body.Close()
			}
			errc <- err
		}()
		return errc
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	handlerReturns := func() {
		t.Helper()
		select {
		case <-handled:
		case <-time.After(10 * time.Second):
			t.Fatal("the handler is still running after its client left")
		}
	}

	// Mid-run: cancel once the first searches are done.
	mined := counter(mines)
	before = counter(drains)
	ctx, cancel := context.WithCancel(context.Background())
	errc := post(ctx)
	waitFor("the mine to start searching", func() bool { return counter(drains) > before })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled client got %v, want context.Canceled", err)
	}
	handlerReturns()
	if searched := counter(drains) - before; searched >= whole {
		t.Fatalf("the cancelled mine searched %d times, the whole run %d: it did not stop", searched, whole)
	}
	if counter(mines) != mined {
		t.Fatal("the cancelled mine was counted as answered")
	}

	// Queued: hold the only slot, let a request wait for it, cancel it.
	release, err := s.admitMine(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	arrived := counter(requests)
	ctx, cancel = context.WithCancel(context.Background())
	errc = post(ctx)
	waitFor("the request to arrive", func() bool { return counter(requests) > arrived })
	time.Sleep(20 * time.Millisecond) // let it reach the semaphore
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled client got %v, want context.Canceled", err)
	}
	handlerReturns()
	if n := s.mineInFlight.Load(); n != 1 {
		t.Fatalf("%d mining jobs admitted; only the held slot should be", n)
	}
	release()

	// A request whose client is already gone takes no free slot either.
	cancel()
	if _, err := s.admitMine(ctx); err == nil {
		t.Fatal("admitted a request whose context is done")
	} else if se, ok := err.(statusError); !ok || se.code != statusClientClosedRequest {
		t.Fatalf("abandoned admission failed with %v, want a %d statusError", err, statusClientClosedRequest)
	}
	if n := s.mineInFlight.Load(); n != 0 {
		t.Fatalf("in-flight count %d after every job left", n)
	}
}
