package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

func testEvent() Event {
	return Event{
		Time:        time.Date(2026, 8, 7, 12, 0, 0, 123456789, time.UTC),
		TraceID:     "4bf92f3577b34da6a3ce929d0e0e4736",
		RequestID:   "4bf92f3577b34da6a3ce929d0e0e4736",
		Tenant:      "acme",
		Transform:   "paper",
		View:        "dept_emp",
		ViewVersion: 3,
		DataVersion: 17,
		SheetHash:   "ab12cd34",
		Outcome:     "ok",
		Status:      200,
		Cache:       "miss",
		Coalesce:    "leader",
		Strategy:    "unordered",
		AccessPath:  "index-probe",
		Rows:        51,
		GovTicks:    2,
		RunID:       9,
		TotalNS:     1234567,
		CompileNS:   111,
		ExecNS:      999,
	}
}

// TestAppendJSONMatchesEncodingJSON pins the hand-rolled NDJSON encoder to
// encoding/json's output byte for byte, across full, sparse, and
// escaping-hostile events. The omitempty elisions and HTML escaping must
// agree or the two encoders would drift apart silently.
func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	events := []Event{
		testEvent(),
		{Time: time.Now(), Tenant: "t", Outcome: "shed", Status: 429},
		{},
		{Time: time.Now().In(time.FixedZone("X", 3*3600)), Tenant: "héh\n<&>\"\\", Error: "bad \x01 control", Outcome: "error", Status: 500},
	}
	for i, ev := range events {
		want, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		got := ev.AppendJSON(nil)
		if !bytes.Equal(got, want) {
			t.Fatalf("event %d:\nAppendJSON: %s\njson.Marshal: %s", i, got, want)
		}
	}
}

// TestEventBusDeliversToSinks pushes events through the bus into an NDJSON
// sink and a ring, flushes, and checks both saw everything in order.
func TestEventBusDeliversToSinks(t *testing.T) {
	var buf bytes.Buffer
	nd := NewNDJSONSink(&buf)
	ring := NewRingSink(2)
	bus := NewEventBus(8, nd, ring)
	defer bus.Close()

	for i := 0; i < 3; i++ {
		ev := testEvent()
		ev.Rows = int64(i)
		if !bus.Publish(ev) {
			t.Fatalf("publish %d rejected", i)
		}
	}
	bus.Flush()

	st := bus.Stats()
	if st.Published != 3 || st.Delivered != 3 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 NDJSON lines, got %d:\n%s", len(lines), buf.String())
	}
	for i, line := range lines {
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d does not parse: %v\n%s", i, err, line)
		}
		if ev.Rows != int64(i) || ev.Tenant != "acme" || ev.TraceID == "" {
			t.Fatalf("line %d round-tripped wrong: %+v", i, ev)
		}
	}
	// The capacity-2 ring keeps the newest two, newest first.
	recent := ring.Recent(0)
	if len(recent) != 2 || recent[0].Rows != 2 || recent[1].Rows != 1 {
		t.Fatalf("ring = %+v", recent)
	}
	if one := ring.Recent(1); len(one) != 1 || one[0].Rows != 2 {
		t.Fatalf("Recent(1) = %+v", one)
	}
}

// gatedSink blocks each Emit until released, so a test can hold the
// dispatcher mid-delivery and fill the bus buffer deterministically.
type gatedSink struct {
	started chan struct{} // receives one token when an Emit begins
	release chan struct{} // each Emit consumes one token to proceed
	got     []Event
	mu      sync.Mutex
}

func (s *gatedSink) Emit(ev Event) {
	s.started <- struct{}{}
	<-s.release
	s.mu.Lock()
	s.got = append(s.got, ev)
	s.mu.Unlock()
}

// TestEventBusOverflowDropsDeterministic stalls the dispatcher inside a sink,
// fills the buffer exactly, and checks the next Publish is rejected and
// counted — while every accepted event is still delivered once the sink
// unblocks. No sleeps, no racing on goroutine
// scheduling: the gate makes the buffer state exact.
func TestEventBusOverflowDropsDeterministic(t *testing.T) {
	gate := &gatedSink{started: make(chan struct{}, 8), release: make(chan struct{}, 8)}
	bus := NewEventBus(2, gate)
	defer bus.Close()

	// First event: wait until the dispatcher is blocked inside Emit. The
	// buffer is now empty and the dispatcher is occupied.
	if !bus.Publish(testEvent()) {
		t.Fatal("first publish rejected")
	}
	<-gate.started

	// Fill the 2-slot buffer while the dispatcher is stuck.
	for i := 0; i < 2; i++ {
		if !bus.Publish(testEvent()) {
			t.Fatalf("publish into free buffer slot %d rejected", i)
		}
	}
	// Buffer full: this one must be dropped, not blocked.
	if bus.Publish(testEvent()) {
		t.Fatal("publish into full buffer accepted")
	}
	if st := bus.Stats(); st.Published != 3 || st.Dropped != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// Unblock the sink; everything accepted must still arrive.
	for i := 0; i < 3; i++ {
		gate.release <- struct{}{}
	}
	// The dispatcher consumes started tokens as it processes the rest.
	for i := 0; i < 2; i++ {
		<-gate.started
	}
	bus.Flush()
	if st := bus.Stats(); st.Delivered != 3 || st.Dropped != 1 {
		t.Fatalf("stats after flush = %+v", st)
	}
	gate.mu.Lock()
	n := len(gate.got)
	gate.mu.Unlock()
	if n != 3 {
		t.Fatalf("sink saw %d events, want 3", n)
	}
}

// TestEventBusNilAndClosed: a nil bus is a silent sink; a closed bus counts
// drops; Close is idempotent.
func TestEventBusNilAndClosed(t *testing.T) {
	var nilBus *EventBus
	if nilBus.Publish(testEvent()) {
		t.Fatal("nil bus accepted an event")
	}
	nilBus.Flush()
	nilBus.Close()
	if st := nilBus.Stats(); st != (EventBusStats{}) {
		t.Fatalf("nil stats = %+v", st)
	}

	bus := NewEventBus(4, NewNDJSONSink(io.Discard))
	if !bus.Publish(testEvent()) {
		t.Fatal("publish rejected")
	}
	bus.Close()
	bus.Close() // idempotent
	if bus.Publish(testEvent()) {
		t.Fatal("closed bus accepted an event")
	}
	st := bus.Stats()
	if st.Delivered != 1 || st.Dropped != 1 {
		t.Fatalf("stats after close = %+v", st)
	}
}

// TestRingSinkFiltered pins the filter contract: newest-first, capped at n,
// scanning past non-matching events until the ring is exhausted.
func TestRingSinkFiltered(t *testing.T) {
	ring := NewRingSink(8)
	for i := 0; i < 10; i++ {
		ev := testEvent()
		ev.Rows = int64(i)
		if i%2 == 0 {
			ev.Tenant = "beta"
		}
		ring.Emit(ev)
	}
	// Capacity 8 retains rows 2..9; "beta" events among them: 2, 4, 6, 8.
	beta := ring.RecentFiltered(0, func(ev Event) bool { return ev.Tenant == "beta" })
	if len(beta) != 4 || beta[0].Rows != 8 || beta[3].Rows != 2 {
		t.Fatalf("beta events = %+v", beta)
	}
	if got := ring.RecentFiltered(2, func(ev Event) bool { return ev.Tenant == "beta" }); len(got) != 2 || got[1].Rows != 6 {
		t.Fatalf("RecentFiltered(2) = %+v", got)
	}
	if got := ring.RecentFiltered(0, func(ev Event) bool { return false }); len(got) != 0 {
		t.Fatalf("no-match filter returned %+v", got)
	}
}

// TestRingSinkConcurrentReads hammers a bus-fed ring with concurrent
// publishers and concurrent console-style filtered reads. Run under -race
// (the verify chain does) this is the data-race contract for the /events
// endpoint reading while the dispatcher writes.
func TestRingSinkConcurrentReads(t *testing.T) {
	ring := NewRingSink(64)
	bus := NewEventBus(256, ring)
	defer bus.Close()

	const publishers, perPublisher, readers = 4, 200, 4
	var pubWG, readWG sync.WaitGroup
	for p := 0; p < publishers; p++ {
		pubWG.Add(1)
		go func(p int) {
			defer pubWG.Done()
			for i := 0; i < perPublisher; i++ {
				ev := testEvent()
				ev.Rows = int64(p*perPublisher + i)
				bus.Publish(ev)
			}
		}(p)
	}
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got := ring.RecentFiltered(10, func(ev Event) bool { return ev.Rows%2 == 0 })
				if len(got) > 10 {
					t.Errorf("RecentFiltered(10) returned %d events", len(got))
					return
				}
				for _, ev := range got {
					if ev.Rows%2 != 0 {
						t.Errorf("filter leaked event %+v", ev)
						return
					}
				}
			}
		}()
	}
	// Publishers finish, the dispatcher drains, then readers stop.
	pubWG.Wait()
	bus.Flush()
	close(stop)
	readWG.Wait()
	if got := len(ring.Recent(0)); got != 64 {
		t.Fatalf("full ring holds %d events, want 64", got)
	}
}
