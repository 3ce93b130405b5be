package obs

// The wide-event pipeline: one structured event per served request, carrying
// everything needed to explain that request without joining log lines —
// identity (trace/request ID, tenant, transform, view and data versions),
// the serving-layer outcome (cache, coalesce role, shed reason), the engine
// outcome (strategy, access path, rows, governor ticks), WAL activity during
// the request, and the latency breakdown.
//
// Events flow through a bounded asynchronous bus: Publish never blocks —
// when the buffer is full the event is dropped and counted, because losing
// telemetry must never cost a caller latency. A single dispatcher goroutine
// drains the buffer into pluggable sinks (NDJSON and the console's in-memory
// ring). All EventBus methods are nil-safe, so
// a server with events disabled pays one pointer check per request.

import (
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one wide event: the full story of one served request. Fields are
// grouped identity → outcome → work → latency; zero-valued optional fields
// are elided from the JSON so NDJSON lines stay terse.
type Event struct {
	Time      time.Time `json:"time"`
	TraceID   string    `json:"trace_id,omitempty"`
	RequestID string    `json:"request_id,omitempty"`
	Tenant    string    `json:"tenant"`
	Transform string    `json:"transform,omitempty"`
	View      string    `json:"view,omitempty"`
	// ViewVersion and DataVersion pin which state of the database the
	// request saw (the same versions the result-cache key embeds).
	ViewVersion int    `json:"view_version,omitempty"`
	DataVersion int64  `json:"data_version,omitempty"`
	SheetHash   string `json:"sheet_hash,omitempty"`

	// Outcome is ok | cache-hit | shed | error; Status the HTTP status.
	Outcome string `json:"outcome"`
	Status  int    `json:"status"`
	// Cache (hit|miss), Coalesce (leader|follower) and ShedReason
	// (latency|quota) record the serving-layer decisions for this request.
	Cache      string `json:"cache,omitempty"`
	Coalesce   string `json:"coalesce,omitempty"`
	ShedReason string `json:"shed_reason,omitempty"`
	Error      string `json:"error,omitempty"`

	// Engine-side work (leader executions only; followers and cache hits
	// report rows without strategy detail).
	Strategy   string `json:"strategy,omitempty"`
	AccessPath string `json:"access_path,omitempty"`
	Rows       int64  `json:"rows"`
	GovTicks   int64  `json:"gov_ticks,omitempty"`
	// RunID joins the event to the run-history archive (/runs/<id>).
	RunID uint64 `json:"run_id,omitempty"`

	// Latency breakdown: total request wall time, with the engine's
	// compile and execute shares when the request actually ran.
	TotalNS   int64 `json:"total_ns"`
	CompileNS int64 `json:"compile_ns,omitempty"`
	ExecNS    int64 `json:"exec_ns,omitempty"`
}

// AppendJSON appends the event's JSON encoding to buf and returns the
// extended slice — byte-identical to encoding/json's output (same field
// order, omitempty elisions, and escaping) but allocation-free when buf has
// capacity. The NDJSON sink sits on the dispatcher goroutine behind every
// request's telemetry; hand-rolling the encoder keeps the event pipeline's
// serving overhead small on machines where the dispatcher shares a core with
// the serving workers.
func (e *Event) AppendJSON(buf []byte) []byte {
	buf = append(buf, `{"time":"`...)
	buf = e.Time.AppendFormat(buf, time.RFC3339Nano)
	buf = append(buf, '"')
	buf = appendStrOmit(buf, `"trace_id":`, e.TraceID)
	buf = appendStrOmit(buf, `"request_id":`, e.RequestID)
	buf = appendStr(buf, `"tenant":`, e.Tenant)
	buf = appendStrOmit(buf, `"transform":`, e.Transform)
	buf = appendStrOmit(buf, `"view":`, e.View)
	buf = appendIntOmit(buf, `"view_version":`, int64(e.ViewVersion))
	buf = appendIntOmit(buf, `"data_version":`, e.DataVersion)
	buf = appendStrOmit(buf, `"sheet_hash":`, e.SheetHash)
	buf = appendStr(buf, `"outcome":`, e.Outcome)
	buf = appendInt(buf, `"status":`, int64(e.Status))
	buf = appendStrOmit(buf, `"cache":`, e.Cache)
	buf = appendStrOmit(buf, `"coalesce":`, e.Coalesce)
	buf = appendStrOmit(buf, `"shed_reason":`, e.ShedReason)
	buf = appendStrOmit(buf, `"error":`, e.Error)
	buf = appendStrOmit(buf, `"strategy":`, e.Strategy)
	buf = appendStrOmit(buf, `"access_path":`, e.AccessPath)
	buf = appendInt(buf, `"rows":`, e.Rows)
	buf = appendIntOmit(buf, `"gov_ticks":`, e.GovTicks)
	if e.RunID != 0 {
		buf = append(buf, `,"run_id":`...)
		buf = strconv.AppendUint(buf, e.RunID, 10)
	}
	buf = appendInt(buf, `"total_ns":`, e.TotalNS)
	buf = appendIntOmit(buf, `"compile_ns":`, e.CompileNS)
	buf = appendIntOmit(buf, `"exec_ns":`, e.ExecNS)
	return append(buf, '}')
}

func appendStr(buf []byte, key, v string) []byte {
	buf = append(buf, ',')
	buf = append(buf, key...)
	return appendJSONString(buf, v)
}

func appendStrOmit(buf []byte, key, v string) []byte {
	if v == "" {
		return buf
	}
	return appendStr(buf, key, v)
}

func appendInt(buf []byte, key string, v int64) []byte {
	buf = append(buf, ',')
	buf = append(buf, key...)
	return strconv.AppendInt(buf, v, 10)
}

func appendIntOmit(buf []byte, key string, v int64) []byte {
	if v == 0 {
		return buf
	}
	return appendInt(buf, key, v)
}

// appendJSONString quotes s the way encoding/json does. The fast path covers
// plain printable ASCII without characters json escapes ('"', '\\', '<',
// '>', '&'); anything else defers to encoding/json so escaping stays
// byte-identical.
func appendJSONString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, err := json.Marshal(s)
			if err != nil {
				return append(buf, `""`...)
			}
			return append(buf, b...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}

// EventSink consumes delivered events. Emit is always called from the bus's
// single dispatcher goroutine, so sinks need no locking against each other —
// only against their own external readers. A sink must not block
// indefinitely: it delays the shared dispatcher, and a stalled dispatcher
// turns into counted drops upstream (never into blocked requests).
type EventSink interface {
	Emit(Event)
}

// busMsg is one dispatcher work item: an event, or a flush token (ack is
// closed once everything queued before it has been delivered).
type busMsg struct {
	ev  Event
	ack chan struct{}
}

// EventBus is the bounded async fan-out. Construct with NewEventBus; a nil
// *EventBus drops everything silently and never blocks, so callers thread
// it unconditionally.
type EventBus struct {
	ch    chan busMsg
	sinks []EventSink

	published atomic.Uint64
	delivered atomic.Uint64
	dropped   atomic.Uint64

	closed    atomic.Bool
	closeOnce sync.Once
	quit      chan struct{}
	done      chan struct{}
}

// DefaultEventBuffer bounds the bus when NewEventBus is given no size.
const DefaultEventBuffer = 1024

// NewEventBus starts a bus with the given buffer size (<= 0 uses
// DefaultEventBuffer) draining into sinks.
func NewEventBus(buffer int, sinks ...EventSink) *EventBus {
	if buffer <= 0 {
		buffer = DefaultEventBuffer
	}
	b := &EventBus{
		ch:    make(chan busMsg, buffer),
		sinks: sinks,
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go b.dispatch()
	return b
}

// Publish offers one event to the bus and returns whether it was accepted.
// It NEVER blocks: with the buffer full (or the bus closed or nil) the
// event is dropped and counted instead.
func (b *EventBus) Publish(ev Event) bool {
	if b == nil {
		return false
	}
	if b.closed.Load() {
		b.dropped.Add(1)
		return false
	}
	select {
	case b.ch <- busMsg{ev: ev}:
		b.published.Add(1)
		return true
	default:
		b.dropped.Add(1)
		return false
	}
}

// Flush blocks until every event published before the call has been handed
// to every sink. Tests and shutdown paths use it; the request path never
// does.
func (b *EventBus) Flush() {
	if b == nil {
		return
	}
	ack := make(chan struct{})
	select {
	case b.ch <- busMsg{ack: ack}:
		select {
		case <-ack:
		case <-b.done:
		}
	case <-b.done:
	}
}

// Close flushes and stops the dispatcher. Idempotent; Publish after Close
// counts a drop.
func (b *EventBus) Close() {
	if b == nil {
		return
	}
	b.closeOnce.Do(func() {
		b.closed.Store(true)
		close(b.quit)
		<-b.done
	})
}

// EventBusStats is a consistent-enough snapshot of the bus counters.
type EventBusStats struct {
	Published uint64 `json:"published"`
	Delivered uint64 `json:"delivered"`
	Dropped   uint64 `json:"dropped"`
}

// Stats reports how many events were accepted, delivered to sinks, and
// dropped at the full buffer. Nil-safe.
func (b *EventBus) Stats() EventBusStats {
	if b == nil {
		return EventBusStats{}
	}
	return EventBusStats{
		Published: b.published.Load(),
		Delivered: b.delivered.Load(),
		Dropped:   b.dropped.Load(),
	}
}

// dispatch is the single drain goroutine: events go to every sink in order;
// a flush token first drains everything already buffered, then acks.
func (b *EventBus) dispatch() {
	defer close(b.done)
	for {
		select {
		case m := <-b.ch:
			b.handle(m)
		case <-b.quit:
			for {
				select {
				case m := <-b.ch:
					b.handle(m)
				default:
					return
				}
			}
		}
	}
}

func (b *EventBus) handle(m busMsg) {
	if m.ack != nil {
		for {
			select {
			case m2 := <-b.ch:
				b.handle(m2)
			default:
				close(m.ack)
				return
			}
		}
	}
	for _, s := range b.sinks {
		s.Emit(m.ev)
	}
	b.delivered.Add(1)
}

// NDJSONSink writes one JSON object per line — the grep-able on-disk form
// (xsltd -events-file). Safe for a concurrent reader of the underlying
// writer only if that writer is; the sink itself serializes its writes.
type NDJSONSink struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte // reused line buffer; Emit is serialized by mu
}

// NewNDJSONSink wraps w.
func NewNDJSONSink(w io.Writer) *NDJSONSink { return &NDJSONSink{w: w} }

// Emit writes the event as one JSON line.
func (s *NDJSONSink) Emit(ev Event) {
	s.mu.Lock()
	s.buf = ev.AppendJSON(s.buf[:0])
	s.buf = append(s.buf, '\n')
	_, _ = s.w.Write(s.buf)
	s.mu.Unlock()
}

// RingSink retains the most recent events in a bounded ring — the backing
// store of the console's /events page.
type RingSink struct {
	mu   sync.Mutex
	ring []Event
	next uint64 // total events ever emitted; ring slot is (next-1)%cap
}

// DefaultRingCapacity bounds NewRingSink(0).
const DefaultRingCapacity = 256

// NewRingSink retains the last `capacity` events (<= 0 uses
// DefaultRingCapacity).
func NewRingSink(capacity int) *RingSink {
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	return &RingSink{ring: make([]Event, 0, capacity)}
}

// Emit records the event, evicting the oldest at capacity.
func (s *RingSink) Emit(ev Event) {
	s.mu.Lock()
	if len(s.ring) < cap(s.ring) {
		s.ring = append(s.ring, ev)
	} else {
		s.ring[s.next%uint64(cap(s.ring))] = ev
	}
	s.next++
	s.mu.Unlock()
}

// Recent returns up to n retained events, newest first (n <= 0 returns all).
func (s *RingSink) Recent(n int) []Event {
	return s.RecentFiltered(n, nil)
}

// RecentFiltered returns up to n retained events matching keep, newest
// first. A nil keep matches everything; n <= 0 returns every match. The
// console's /events filters (?tenant=, ?trace=) ride on this so an operator
// can pull one tenant's or one request's events during an incident instead
// of paging through the whole ring.
func (s *RingSink) RecentFiltered(n int, keep func(Event) bool) []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	have := len(s.ring)
	if n <= 0 || n > have {
		n = have
	}
	out := make([]Event, 0, n)
	for i := 0; i < have && len(out) < n; i++ {
		ev := s.ring[(s.next-1-uint64(i))%uint64(cap(s.ring))]
		if keep == nil || keep(ev) {
			out = append(out, ev)
		}
	}
	return out
}
