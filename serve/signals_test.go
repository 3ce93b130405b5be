package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/xslt"
)

// captureSink keeps every event the bus delivers, by request ID.
type captureSink struct {
	mu  sync.Mutex
	evs map[string]obs.Event
}

func (c *captureSink) Emit(ev obs.Event) {
	c.mu.Lock()
	c.evs[ev.RequestID] = ev
	c.mu.Unlock()
}

// keyDataVersion parses the data version out of an execKey.
func keyDataVersion(t *testing.T, key string) int64 {
	t.Helper()
	v, err := strconv.ParseInt(strings.Split(key, "\x00")[2], 10, 64)
	if err != nil {
		t.Fatalf("exec key %q: %v", key, err)
	}
	return v
}

// TestResultFiledUnderSnapshotVersion: a write that lands after the request
// read its versions but before the run pinned its snapshot is in the body, so
// the body is cached — and the event stamped — under the version the snapshot
// read. The next request, which reads that version on arrival, hits it; filed
// under the arrival version it would sit under a key nobody asks for again.
func TestResultFiledUnderSnapshotVersion(t *testing.T) {
	d, s := newDeptServer(t, Config{EnableEvents: true})
	defer s.Close()
	inserted := false
	s.execGate = func() { // on the leader, after the key was built, before Run
		if !inserted {
			inserted = true
			if err := d.Insert("dept", int64(77), "LATE", "NOWHERE"); err != nil {
				t.Error(err)
			}
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	arrival := d.Rel().CommitSeq()
	resp, first := get(t, ts, "/v1/transform/paper", nil)
	if resp.Header.Get("X-Xsltd-Cache") != "miss" || !strings.Contains(first, "LATE") {
		t.Fatalf("first request: cache %q, body %q", resp.Header.Get("X-Xsltd-Cache"), first)
	}
	s.EventBus().Flush()
	if ev := s.EventsState(1).Recent[0]; ev.DataVersion != arrival+1 {
		t.Fatalf("event data_version = %d, want the snapshot's %d (arrival %d)", ev.DataVersion, arrival+1, arrival)
	}
	resp, second := get(t, ts, "/v1/transform/paper", nil)
	if resp.Header.Get("X-Xsltd-Cache") != "hit" || second != first {
		t.Fatalf("second request was a %q: the run's result was filed under a dead key", resp.Header.Get("X-Xsltd-Cache"))
	}
}

// TestVersionsUnderRacingInserts (run under -race): one writer inserts
// departments while readers hammer a cached transform. Every insert adds one
// output row and one commit, so a body with R extra rows was computed from a
// snapshot stamped exactly base+R. That must be the version on the request's
// event — leader, follower or hit — and the version of every key left in the
// cache.
func TestVersionsUnderRacingInserts(t *testing.T) {
	capture := &captureSink{evs: map[string]obs.Event{}}
	d, s := newDeptServer(t, Config{EventSinks: []obs.EventSink{capture}, EventBuffer: 1 << 14})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, body := get(t, ts, "/v1/transform/paper", nil)
	baseRows, baseSeq := int64(strings.Count(body, "\n")), d.Rel().CommitSeq()
	consistent := func(rows int, version int64) bool {
		return version-baseSeq == int64(rows)-baseRows
	}

	const inserts, readers, reads = 200, 4, 150
	type served struct {
		id   string
		rows int
	}
	results := make(chan served, readers*reads)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < inserts; i++ {
			if err := d.Insert("dept", int64(1000+i), fmt.Sprintf("D%d", i), "CITY"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				resp, body := get(t, ts, "/v1/transform/paper", nil)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status %d: %s", resp.StatusCode, body)
					return
				}
				results <- served{resp.Header.Get("X-Request-Id"), strings.Count(body, "\n")}
			}
		}()
	}
	wg.Wait()
	close(results)
	s.EventBus().Flush()
	if st := s.EventBus().Stats(); st.Dropped != 0 {
		t.Fatalf("event bus dropped %d events; the test needs them all", st.Dropped)
	}

	for res := range results {
		ev, ok := capture.evs[res.id]
		if !ok {
			t.Fatalf("request %s has no event", res.id)
		}
		if !consistent(res.rows, ev.DataVersion) {
			t.Errorf("%s/%s request served %d rows (base %d) but its event says data_version %d (base %d)",
				ev.Cache, ev.Coalesce, res.rows, baseRows, ev.DataVersion, baseSeq)
		}
	}
	s.flightMu.Lock()
	if n := len(s.flight); n != 0 {
		t.Errorf("%d flights left behind by finished requests", n)
	}
	s.flightMu.Unlock()
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	for key, el := range s.cache.idx {
		if body := el.Value.(*cacheEntry).body; !consistent(body.rows, keyDataVersion(t, key)) {
			t.Errorf("cache entry with %d rows (base %d) filed under data version %d (base %d)",
				body.rows, baseRows, keyDataVersion(t, key), baseSeq)
		}
	}
}

// TestSignalSurface pins the telemetry surface — every metric family, every
// wide-event field, every console page and every bundle section — against
// testdata/signal_surface.golden, so a new signal is a reviewed diff. Each
// golden row has a consumer in DESIGN.md §9's table; add the row there too.
func TestSignalSurface(t *testing.T) {
	t.Parallel()
	diagDir := t.TempDir()
	_, s := newDeptServer(t, Config{DiagDir: diagDir})
	defer s.Close()
	console := httptest.NewServer(s.Console())
	defer console.Close()

	// The metric families are what the console's scrape shows: the
	// database's registry and the server's.
	var got []string
	_, scrape := get(t, console, "/metrics", nil)
	validateExposition(t, scrape)
	for _, line := range strings.Split(scrape, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			got = append(got, "metric "+strings.Fields(rest)[0])
		}
	}
	evType := reflect.TypeOf(obs.Event{})
	for i := 0; i < evType.NumField(); i++ {
		name, _, _ := strings.Cut(evType.Field(i).Tag.Get("json"), ",")
		got = append(got, "event "+name)
	}
	_, index := get(t, console, "/", nil)
	for _, line := range strings.Split(index, "\n") {
		if strings.HasPrefix(line, "  /") {
			route := strings.Fields(line)[0]
			route, _, _ = strings.Cut(route, "?")
			got = append(got, "console "+route)
			probe := strings.Replace(route, "<id>", "1", 1)
			if resp, _ := get(t, console, probe, nil); resp.StatusCode == http.StatusNotFound && route != "/runs/<id>" {
				t.Errorf("console index lists %s but the mux does not serve it", route)
			}
		}
	}
	bundle, err := s.Recorder().Capture("manual")
	if err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(bundle)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		got = append(got, "bundle "+f.Name())
	}
	sort.Strings(got)

	golden := filepath.Join("testdata", "signal_surface.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if text := strings.Join(got, "\n") + "\n"; text != string(want) {
		t.Errorf("signal surface drifted from %s — review the change, give each new signal a consumer in DESIGN.md §9, then update the golden.\n got:\n%s", golden, text)
	}
	xsltd, xsltdb := 0, 0
	for _, line := range got {
		switch {
		case strings.HasPrefix(line, "metric xsltd_"):
			xsltd++
		case strings.HasPrefix(line, "metric xsltdb_"):
			xsltdb++
		}
	}
	if xsltd > 9 {
		t.Errorf("%d xsltd_* families, want at most 9: one fact, one family", xsltd)
	}
	if xsltdb > 13 {
		t.Errorf("%d xsltdb_* families, want at most 13: one fact, one family", xsltdb)
	}
}

// TestTwoServersOneDatabase: two servers over one database each own a
// registry, so each one's xsltd_requests_total counts only its own requests.
// Both consoles' /metrics are valid expositions and carry the shared engine
// series, which count the runs of both.
func TestTwoServersOneDatabase(t *testing.T) {
	t.Parallel()
	d, a := newDeptServer(t, Config{})
	defer a.Close()
	b, err := New(Config{DB: d})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.RegisterTransform("paper", "dept_emp", xslt.PaperStylesheet); err != nil {
		t.Fatal(err)
	}
	for s, n := range map[*Server]int{a: 3, b: 1} {
		api := httptest.NewServer(s.Handler())
		for i := 0; i < n; i++ { // distinct keys: every request runs
			if resp, body := get(t, api, "/v1/transform/paper?p.i="+strconv.Itoa(i), nil); resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
		}
		api.Close()
	}

	for s, n := range map[*Server]int{a: 3, b: 1} {
		var requests float64
		for _, sv := range s.metrics.reg.SeriesValues("xsltd_requests_total") {
			requests += sv.Value
		}
		if requests != float64(n) {
			t.Errorf("xsltd_requests_total = %v, want this server's own %d", requests, n)
		}
		console := httptest.NewServer(s.Console())
		_, scrape := get(t, console, "/metrics", nil)
		console.Close()
		validateExposition(t, scrape)
		for _, want := range []string{
			fmt.Sprintf(`xsltd_requests_total{tenant="",outcome="ok"} %d`, n),
			`xsltdb_runs_total{strategy="sql-rewrite",outcome="ok"} 4`,
		} {
			if !strings.Contains(scrape, want+"\n") {
				t.Errorf("console /metrics missing %q:\n%s", want, scrape)
			}
		}
	}
}

// discardWriter is a ResponseWriter that keeps nothing but the headers, so
// what a request costs is the handler's own allocations. Like net/http's
// writer it takes strings without a copy.
type discardWriter struct{ header http.Header }

func (w *discardWriter) Header() http.Header               { return w.header }
func (w *discardWriter) Write(p []byte) (int, error)       { return len(p), nil }
func (w *discardWriter) WriteString(s string) (int, error) { return len(s), nil }
func (w *discardWriter) WriteHeader(int)                   {}

// TestEventsCostNoAllocations (serial: AllocsPerRun counts every goroutine's
// allocations, so a parallel test's would be charged to the hit): turning the
// wide-event pipeline on — an NDJSON
// sink and the console ring on the bus, the flight recorder armed — adds no
// allocation to a cached hit, the cheapest request the server answers and so
// the one where the pipeline's share is largest. The event is filled in on
// the request path either way (the request fold reads it); publishing copies
// it into the bus's channel, and encoding and fan-out run on the dispatcher
// from a reused buffer.
func TestEventsCostNoAllocations(t *testing.T) {
	const hits = 200 // under the bus's 1024-event buffer: nothing is dropped
	perHit := func(cfg Config) (float64, obs.EventBusStats) {
		_, s := newDeptServer(t, cfg)
		defer s.Close()
		h := s.Handler()
		req := httptest.NewRequest(http.MethodGet, "/v1/transform/paper", nil)
		w := &discardWriter{header: http.Header{}}
		for i := 0; i < 10; i++ { // the first is the miss that fills the cache
			h.ServeHTTP(w, req)
		}
		s.EventBus().Flush()
		allocs := testing.AllocsPerRun(hits, func() { h.ServeHTTP(w, req) })
		if got := w.header.Get("X-Xsltd-Cache"); got != "hit" {
			t.Fatalf("X-Xsltd-Cache = %q, want hit", got)
		}
		s.EventBus().Flush()
		return allocs, s.EventBus().Stats()
	}
	off, _ := perHit(Config{})
	on, bus := perHit(Config{
		EnableEvents: true,
		EventSinks:   []obs.EventSink{obs.NewNDJSONSink(io.Discard)},
		DiagDir:      t.TempDir(),
	})
	t.Logf("cached hit: %.1f allocs events off, %.1f events on (%d events published)", off, on, bus.Published)
	if bus.Published < hits || bus.Dropped != 0 {
		t.Fatalf("events on: %+v, want every hit published and none dropped", bus)
	}
	ceiling := 20.0
	if poolsDropItems() {
		ceiling = 40 // the request's pooled buffers are reallocated at random
	} else if on > off {
		t.Errorf("events on: %.1f allocs per hit, events off %.1f — the pipeline must not allocate on the request path", on, off)
	}
	if off > ceiling {
		t.Errorf("events off: %.1f allocs per hit, ceiling is %.0f", off, ceiling)
	}
}

// poolsDropItems reports whether sync.Pool is discarding a share of what is
// put into it, as it does under the race detector, where an allocation count
// therefore says little about the code being measured.
func poolsDropItems() bool {
	var pool sync.Pool
	item := new(int)
	for i := 0; i < 64; i++ {
		pool.Put(item)
		if pool.Get() == nil {
			return true
		}
	}
	return false
}
