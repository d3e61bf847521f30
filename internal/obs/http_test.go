package obs

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"znscache/internal/stats"
)

func TestMuxMetricsEndpoint(t *testing.T) {
	r := NewRegistry()
	var c stats.Counter
	c.Add(9)
	r.Counter("zns_zone_resets_total", "Zone resets", L("zone", "2"), &c)
	mux := NewMux(r)

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("/metrics content-type %q", ct)
	}
	body := rec.Body.String()
	if !strings.Contains(body, `zns_zone_resets_total{zone="2"} 9`) {
		t.Fatalf("/metrics missing series:\n%s", body)
	}

	// The registry stays live: a series registered after the mux was built
	// appears on the next scrape.
	r.Gauge("zns_open_zones", "", nil, func() float64 { return 1 })
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "zns_open_zones 1") {
		t.Fatalf("late-registered series missing:\n%s", rec.Body.String())
	}
}

func TestMuxDebugEndpoints(t *testing.T) {
	mux := NewMux(NewRegistry())
	for _, path := range []string{"/debug/pprof/", "/"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("%s status %d", path, rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/nope", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown path status %d, want 404", rec.Code)
	}
}

func TestStartServer(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("up", "", nil, func() uint64 { return 1 })
	srv, err := StartServer("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close() //nolint:errcheck
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close() //nolint:errcheck
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "up 1") {
		t.Fatalf("served metrics missing series:\n%s", body)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestCloseWaitsForInflightScrape pins the graceful-shutdown contract: a
// /metrics scrape already being served when Close is called completes with
// its full body instead of a severed connection. The scrape is held open by
// a gauge whose read blocks until the test releases it after Close has begun.
func TestCloseWaitsForInflightScrape(t *testing.T) {
	r := NewRegistry()
	scraping := make(chan struct{}) // closed when the gauge read starts
	release := make(chan struct{})  // closed to let the scrape finish
	var entered bool                // close scraping only once
	r.Gauge("slow_gauge", "", nil, func() float64 {
		if !entered {
			entered = true
			close(scraping)
			<-release
		}
		return 42
	})
	srv, err := StartServer("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}

	type scrape struct {
		body string
		err  error
	}
	got := make(chan scrape, 1)
	go func() {
		resp, err := http.Get("http://" + srv.Addr() + "/metrics")
		if err != nil {
			got <- scrape{err: err}
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close() //nolint:errcheck
		got <- scrape{body: string(body), err: err}
	}()

	<-scraping // the handler is mid-scrape now
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()

	// Close must not return while the scrape is still blocked.
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) with a scrape in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	s := <-got
	if s.err != nil {
		t.Fatalf("in-flight scrape failed: %v", s.err)
	}
	if !strings.Contains(s.body, "slow_gauge 42") {
		t.Fatalf("in-flight scrape body truncated:\n%s", s.body)
	}

	// New connections are refused once Close has returned.
	if _, err := http.Get("http://" + srv.Addr() + "/metrics"); err == nil {
		t.Fatal("scrape succeeded after Close")
	}
}

// TestShutdownDeadlineExpires verifies Shutdown honours its context: with a
// scrape stuck past the deadline, Shutdown returns the context error rather
// than hanging.
func TestShutdownDeadlineExpires(t *testing.T) {
	r := NewRegistry()
	scraping := make(chan struct{})
	release := make(chan struct{})
	var entered bool
	r.Gauge("stuck_gauge", "", nil, func() float64 {
		if !entered {
			entered = true
			close(scraping)
			<-release
		}
		return 0
	})
	srv, err := StartServer("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer close(release)
	defer srv.srv.Close() //nolint:errcheck // hard stop after the test

	go http.Get("http://" + srv.Addr() + "/metrics") //nolint:errcheck
	<-scraping

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want context.DeadlineExceeded", err)
	}
}
