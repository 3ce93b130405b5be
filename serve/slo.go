package serve

// Per-tenant SLO burn-rate tracking. The SLO is availability-style over a
// sliding window of recent requests: a request is "bad" when it errored or
// exceeded the latency target. With objective o (say 0.99), the error budget
// is 1-o; the burn rate is badFraction / (1-o) — 1.0 means bad requests are
// arriving exactly as fast as the budget allows, 2.0 means the budget will
// be exhausted in half the window. The gauge exposes burn×1000 because the
// registry's gauges are integers.

import (
	"sync"
	"time"
)

type sloTracker struct {
	target    time.Duration // latency above this is "bad" (0 = latency never bad)
	objective float64       // fraction of requests that must be good, e.g. 0.99

	mu      sync.Mutex
	tenants map[string]*sloWindow
}

type sloWindow struct {
	bad  []bool // ring of request verdicts
	next int
	n    int // filled entries, up to len(bad)
	sum  int // bad entries currently in the ring
}

func newSLOTracker(target time.Duration, objective float64) *sloTracker {
	if objective <= 0 || objective >= 1 {
		objective = 0.99
	}
	return &sloTracker{target: target, objective: objective, tenants: map[string]*sloWindow{}}
}

// record folds one finished request into the tenant's window and returns the
// updated burn rate ×1000 for the gauge.
func (t *sloTracker) record(tenant string, wall time.Duration, failed bool) int64 {
	bad := failed || (t.target > 0 && wall > t.target)
	t.mu.Lock()
	defer t.mu.Unlock()
	w := t.tenants[tenant]
	if w == nil {
		w = &sloWindow{bad: make([]bool, windowSize)}
		t.tenants[tenant] = w
	}
	if w.n == len(w.bad) {
		if w.bad[w.next] {
			w.sum--
		}
	} else {
		w.n++
	}
	w.bad[w.next] = bad
	if bad {
		w.sum++
	}
	w.next = (w.next + 1) % len(w.bad)
	badFrac := float64(w.sum) / float64(w.n)
	return int64(badFrac / (1 - t.objective) * 1000)
}
