package serve

import (
	"sort"
	"sync"
	"time"
)

// windowSize is how many recent requests the shedding p95 and the SLO burn
// rate are computed over.
const windowSize = 256

// latencyWindow is the sliding window admission control, /readyz and the
// latency-spike detector read their p95 from. A fixed ring of the most recent
// request latencies, it recovers on its own after an overload passes — unlike
// a cumulative histogram, whose quantiles never come back down — so shedding
// stops as soon as recent traffic is fast again.
type latencyWindow struct {
	mu     sync.Mutex
	ring   []time.Duration
	next   int
	filled int
}

func newLatencyWindow() *latencyWindow {
	return &latencyWindow{ring: make([]time.Duration, windowSize)}
}

func (w *latencyWindow) record(d time.Duration) {
	w.mu.Lock()
	w.ring[w.next] = d
	w.next = (w.next + 1) % len(w.ring)
	if w.filled < len(w.ring) {
		w.filled++
	}
	w.mu.Unlock()
}

// p95 computes the 95th percentile of the recorded window; 0 while fewer
// than 8 samples exist, so a cold server never sheds.
func (w *latencyWindow) p95() time.Duration {
	w.mu.Lock()
	if w.filled < 8 {
		w.mu.Unlock()
		return 0
	}
	buf := make([]time.Duration, w.filled)
	copy(buf, w.ring[:w.filled])
	w.mu.Unlock()
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	return buf[(len(buf)*95)/100]
}
