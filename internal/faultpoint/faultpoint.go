// Package faultpoint provides named fault-injection hooks for testing the
// engine's degradation and cleanup paths. Production code marks interesting
// failure sites with Hit("layer.site"); tests arm a site with Enable or
// EnableAfter to force a deterministic error there, then verify the caller
// degrades, cleans up, and reports correctly.
//
// The disarmed fast path is a single atomic load of a package counter, so
// leaving Hit calls in hot loops costs nothing measurable in production.
//
// Registered sites (grep for faultpoint.Hit to confirm):
//
//	relstore.scan.batch   — full-scan batch fetch (one hit per batch the
//	                        consumer pulls, morsel workers or not)
//	relstore.index.batch  — index-scan batch fetch (likewise)
//	relstore.join.batch   — group-join of one batch of outer keys (one hit
//	                        per Join)
//	sqlxml.query.open     — SQL/XML query open: planning the driving access
//	                        path, before any row is touched
//	sqlxml.query.next     — SQL/XML cursor row (one hit each time a query
//	                        cursor advances)
//	sqlxml.view.row       — view row materialization (one hit each time a
//	                        view cursor advances)
//	xq2sql.translate      — XQuery→SQL/XML lowering
//	wal.append            — WAL record append; firing leaves a torn
//	                        half-frame on disk and wedges the log
//	wal.fsync             — WAL fsync; firing rolls the append back to the
//	                        committed prefix
//	wal.rotate            — WAL segment rotation; firing fails the append
//	                        cleanly (retryable)
package faultpoint

import (
	"sync"
	"sync/atomic"
	"time"
)

// armed counts enabled points; zero means every Hit is a no-op.
var armed atomic.Int32

var (
	mu     sync.Mutex
	points = map[string]*point{}
)

type point struct {
	// remaining hits that pass before the point fires; <0 fires always.
	remaining int64
	err       error
	panics    bool
	sleep     time.Duration
	hits      int64
}

// Enable arms name to fail every Hit with err until Disable/Reset.
func Enable(name string, err error) { EnableAfter(name, 0, err) }

// EnablePanic arms name to panic on every Hit — exercising the facade's
// panic-containment boundary the way a real engine bug would.
func EnablePanic(name string) {
	mu.Lock()
	defer mu.Unlock()
	if _, exists := points[name]; !exists {
		armed.Add(1)
	}
	points[name] = &point{panics: true}
}

// EnableSleep arms name to stall every Hit for d and then succeed — the
// site slows down instead of failing. Diagnostics tests use it to induce a
// realistic WAL fsync stall or a latency spike without touching real IO.
func EnableSleep(name string, d time.Duration) {
	mu.Lock()
	defer mu.Unlock()
	if _, exists := points[name]; !exists {
		armed.Add(1)
	}
	points[name] = &point{sleep: d}
}

// EnableAfter arms name to let n Hits pass, then fail every later Hit with
// err. n=0 fails immediately; use it to force mid-scan failures at a
// deterministic row.
func EnableAfter(name string, n int, err error) {
	mu.Lock()
	defer mu.Unlock()
	if _, exists := points[name]; !exists {
		armed.Add(1)
	}
	points[name] = &point{remaining: int64(n), err: err}
}

// Disable disarms one point.
func Disable(name string) {
	mu.Lock()
	defer mu.Unlock()
	if _, exists := points[name]; exists {
		delete(points, name)
		armed.Add(-1)
	}
}

// Reset disarms every point. Tests should defer this after arming.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	if len(points) > 0 {
		armed.Add(int32(-len(points)))
		points = map[string]*point{}
	}
}

// Hits reports how many times name was hit while armed (passing or
// failing); 0 when not armed.
func Hits(name string) int64 {
	mu.Lock()
	defer mu.Unlock()
	if p, ok := points[name]; ok {
		return p.hits
	}
	return 0
}

// Hit is the production-side hook: it returns nil unless name is armed and
// its pass budget is exhausted.
func Hit(name string) error {
	if armed.Load() == 0 {
		return nil
	}
	mu.Lock()
	defer mu.Unlock()
	p, ok := points[name]
	if !ok {
		return nil
	}
	p.hits++
	if p.remaining > 0 {
		p.remaining--
		return nil
	}
	if p.panics {
		panic("faultpoint: injected panic at " + name)
	}
	if p.sleep > 0 {
		// Sleep outside the registry lock so a stalled site does not also
		// stall every other armed point.
		d := p.sleep
		mu.Unlock()
		time.Sleep(d)
		mu.Lock()
		return nil
	}
	return p.err
}
