// Package obs is the engine's zero-dependency observability layer: spans
// and traces for attributing latency to compile phases and plan operators,
// and metrics registries (metrics.go), one per database and per server, for
// counters, gauges and histograms in Prometheus text format.
//
// The design goal is that instrumentation can be threaded through every hot
// path unconditionally: all Trace and Span methods are safe on a nil
// receiver and reduce to a single pointer check, so an untraced run pays
// (almost) nothing. When a trace IS attached, spans come from a sync.Pool
// and counters are atomics, so concurrent operators (parallel construction
// workers) may write to one span without extra locking.
//
// Two span styles share one type:
//
//   - phase spans bracket a region once: sp := parent.Start("compile");
//     defer sp.End()
//   - operator spans aggregate many invocations: sp.Observe(d) accumulates
//     duration and bumps the invocation count; rows flow in via
//     AddRowsIn/AddRowsOut.
package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value annotation on a span (strategy, access path,
// cache outcome, degradation reason, ...).
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one node of a trace: a named region of work with wall time,
// rows in/out, an invocation count, attributes and child spans. The
// zero-value Span is not used directly; spans are created through
// Trace.Start and Span.Start. All methods are nil-safe.
type Span struct {
	name    string
	started time.Time

	durNS   atomic.Int64
	count   atomic.Int64
	rowsIn  atomic.Int64
	rowsOut atomic.Int64
	ended   atomic.Bool

	mu       sync.Mutex
	attrs    []Attr
	errMsg   string
	children []*Span
}

// spanPool recycles spans across traces; Trace.Release returns a whole
// tree to the pool.
var spanPool = sync.Pool{New: func() any { return new(Span) }}

func newSpan(name string) *Span {
	s := spanPool.Get().(*Span)
	s.name = name
	s.started = time.Now()
	return s
}

// free resets s (keeping slice capacity) and returns it to the pool.
func (s *Span) free() {
	for _, c := range s.children {
		c.free()
	}
	s.name = ""
	s.started = time.Time{}
	s.durNS.Store(0)
	s.count.Store(0)
	s.rowsIn.Store(0)
	s.rowsOut.Store(0)
	s.ended.Store(false)
	s.attrs = s.attrs[:0]
	s.errMsg = ""
	s.children = s.children[:0]
	spanPool.Put(s)
}

// Start opens a child span under s. On a nil receiver it returns nil, so
// untraced code paths cost one pointer check.
func (s *Span) Start(name string) *Span {
	if s == nil {
		return nil
	}
	c := newSpan(name)
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End closes a phase span: its duration becomes the wall time since Start.
// End is idempotent — a second call is ignored — so error paths may use
// defer sp.End() safely alongside an explicit earlier End.
func (s *Span) End() {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	s.durNS.Add(int64(time.Since(s.started)))
	s.count.Add(1)
}

// Observe accumulates one invocation of an operator span: duration d is
// added to the span's total and the invocation count is bumped. Operator
// spans never call End.
func (s *Span) Observe(d time.Duration) {
	if s == nil {
		return
	}
	s.durNS.Add(int64(d))
	s.count.Add(1)
}

// ObserveSince is Observe(time.Since(start)).
func (s *Span) ObserveSince(start time.Time) {
	if s == nil {
		return
	}
	s.Observe(time.Since(start))
}

// AddRowsIn charges n rows entering the operator.
func (s *Span) AddRowsIn(n int64) {
	if s == nil {
		return
	}
	s.rowsIn.Add(n)
}

// AddRowsOut charges n rows leaving the operator.
func (s *Span) AddRowsOut(n int64) {
	if s == nil {
		return
	}
	s.rowsOut.Add(n)
}

// SetAttr annotates the span. The value is rendered with fmt.Sprint at call
// time; callers on hot paths should guard with `if sp != nil` to avoid the
// boxing allocation when no trace is attached.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	var v string
	switch x := value.(type) {
	case string:
		v = x
	default:
		v = fmt.Sprint(value)
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: v})
	s.mu.Unlock()
}

// Fail tags the span with a terminal error. The span still needs End (or
// carries its accumulated Observe time).
func (s *Span) Fail(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.errMsg = err.Error()
	s.mu.Unlock()
}

// Name returns the span's name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns the span's recorded wall time so far.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.durNS.Load())
}

// Trace collects the spans of one execution (a Run, a cursor's lifetime,
// or a compilation). The zero value is NOT ready; use New. A nil *Trace is
// valid everywhere and records nothing.
type Trace struct {
	mu    sync.Mutex
	id    string // W3C trace-id hex when request-scoped; "" otherwise
	roots []*Span
}

// New returns an empty trace.
func New() *Trace { return &Trace{} }

// SetID attaches a request-scoped identity (the W3C trace-id hex) to the
// trace. The engine archives a trace carrying an ID under that ID
// (Archive.RunByTrace), so a served request's span tree is reachable from
// its X-Request-Id. Nil-safe.
func (t *Trace) SetID(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.id = id
	t.mu.Unlock()
}

// ID returns the attached identity ("" on nil or when never set).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.id
}

// Start opens a top-level span. Nil-safe: on a nil trace it returns a nil
// span, and every operation on that span is a no-op.
func (t *Trace) Start(name string) *Span {
	if t == nil {
		return nil
	}
	s := newSpan(name)
	t.mu.Lock()
	t.roots = append(t.roots, s)
	t.mu.Unlock()
	return s
}

// Roots returns the top-level spans recorded so far.
func (t *Trace) Roots() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span(nil), t.roots...)
}

// Release returns every span to the pool and empties the trace for reuse.
// Call it only when no rendered view of the trace is needed anymore; the
// facade releases its internal traces, user-supplied traces are the
// caller's to release (or to leave to the garbage collector).
func (t *Trace) Release() {
	if t == nil {
		return
	}
	t.mu.Lock()
	roots := t.roots
	t.roots = nil
	t.id = ""
	t.mu.Unlock()
	for _, s := range roots {
		s.free()
	}
}

// SpanJSON is the exported form of one span (see Trace.JSON).
type SpanJSON struct {
	Name     string            `json:"name"`
	DurNS    int64             `json:"dur_ns"`
	Count    int64             `json:"count,omitempty"`
	RowsIn   int64             `json:"rows_in,omitempty"`
	RowsOut  int64             `json:"rows_out,omitempty"`
	Error    string            `json:"error,omitempty"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Children []SpanJSON        `json:"children,omitempty"`
}

func (s *Span) export() SpanJSON {
	s.mu.Lock()
	attrs := append([]Attr(nil), s.attrs...)
	errMsg := s.errMsg
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	j := SpanJSON{
		Name:    s.name,
		DurNS:   s.durNS.Load(),
		Count:   s.count.Load(),
		RowsIn:  s.rowsIn.Load(),
		RowsOut: s.rowsOut.Load(),
		Error:   errMsg,
	}
	if len(attrs) > 0 {
		j.Attrs = make(map[string]string, len(attrs))
		for _, a := range attrs {
			j.Attrs[a.Key] = a.Value
		}
	}
	for _, c := range children {
		j.Children = append(j.Children, c.export())
	}
	return j
}

// Export returns the trace as plain data (for programmatic inspection).
func (t *Trace) Export() []SpanJSON {
	if t == nil {
		return nil
	}
	out := make([]SpanJSON, 0, 1)
	for _, s := range t.Roots() {
		out = append(out, s.export())
	}
	return out
}

// JSON marshals the whole trace, indented, for offline inspection (the run
// archive keeps it with every retained trace).
func (t *Trace) JSON() ([]byte, error) {
	return json.MarshalIndent(t.Export(), "", "  ")
}

// Tree renders the trace as a human-readable operator tree: one line per
// span with its wall time, invocation count, rows and attributes, children
// indented beneath. This is the EXPLAIN ANALYZE rendering.
func (t *Trace) Tree() string {
	if t == nil {
		return ""
	}
	var sb strings.Builder
	for _, s := range t.Roots() {
		s.tree(&sb, "", "")
	}
	return sb.String()
}

func (s *Span) tree(sb *strings.Builder, prefix, childPrefix string) {
	s.mu.Lock()
	attrs := append([]Attr(nil), s.attrs...)
	errMsg := s.errMsg
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()

	sb.WriteString(prefix)
	fmt.Fprintf(sb, "%-24s %10v", s.name, time.Duration(s.durNS.Load()).Round(time.Microsecond))
	if n := s.count.Load(); n > 1 {
		fmt.Fprintf(sb, " calls=%d", n)
	}
	if n := s.rowsIn.Load(); n > 0 {
		fmt.Fprintf(sb, " rows_in=%d", n)
	}
	if n := s.rowsOut.Load(); n > 0 {
		fmt.Fprintf(sb, " rows_out=%d", n)
	}
	for _, a := range attrs {
		if strings.ContainsAny(a.Value, " \t") {
			fmt.Fprintf(sb, " %s=%q", a.Key, a.Value)
		} else {
			fmt.Fprintf(sb, " %s=%s", a.Key, a.Value)
		}
	}
	if errMsg != "" {
		fmt.Fprintf(sb, " ERROR=%q", errMsg)
	}
	sb.WriteByte('\n')
	for i, c := range children {
		if i == len(children)-1 {
			c.tree(sb, childPrefix+"└─ ", childPrefix+"   ")
		} else {
			c.tree(sb, childPrefix+"├─ ", childPrefix+"│  ")
		}
	}
}

// Find returns the first span (depth-first across the whole trace) with the
// given name, or nil — a test and tooling convenience.
func (t *Trace) Find(name string) *Span {
	if t == nil {
		return nil
	}
	for _, s := range t.Roots() {
		if found := s.find(name); found != nil {
			return found
		}
	}
	return nil
}

func (s *Span) find(name string) *Span {
	if s.name == name {
		return s
	}
	s.mu.Lock()
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		if found := c.find(name); found != nil {
			return found
		}
	}
	return nil
}
