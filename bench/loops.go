package main

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// loops.go holds the load generators. A closed loop sends a client's next
// operation when the previous one has completed, and measures what the
// system can sustain. An open loop sends on a fixed schedule whatever the
// system does, and times every operation from the moment it was due, so a
// stall is charged to every operation it delays.

// opFunc performs operation number i on behalf of one client and reports
// whether its output was correct. scratch is that client's reusable buffer.
type opFunc func(i int, scratch *bytes.Buffer) bool

// loopResult is what one phase measured.
type loopResult struct {
	LatMs      []float64 // per operation, from send (closed loop) or from its due time (open loop)
	Failed     int
	Elapsed    time.Duration
	LagMs      []float64 // open loop: how late an idle client started an operation
	Mallocs    uint64    // process-wide heap allocations during the phase
	AllocBytes uint64
}

func (r loopResult) opsPerSec() float64 { return ratio(float64(len(r.LatMs)), r.Elapsed.Seconds()) }

// sequence hands out operation numbers to the clients of a workload, across
// its phases, so that every phase continues the seeded request sequence
// where the previous one stopped.
type sequence struct{ next atomic.Int64 }

func (s *sequence) take() int { return int(s.next.Add(1) - 1) }

// measured runs body between two readings of the allocator's counters.
func measured(body func()) (mallocs, allocBytes uint64, elapsed time.Duration) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	body()
	elapsed = time.Since(start)
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, elapsed
}

// closedLoop runs clients closed-loop clients for d.
func closedLoop(clients int, d time.Duration, seq *sequence, op opFunc) loopResult {
	type part struct {
		lat    []float64
		failed int
	}
	parts := make([]part, clients)
	var res loopResult
	res.Mallocs, res.AllocBytes, res.Elapsed = measured(func() {
		deadline := time.Now().Add(d)
		var wg sync.WaitGroup
		for c := range parts {
			wg.Add(1)
			go func(p *part) {
				defer wg.Done()
				var scratch bytes.Buffer
				p.lat = make([]float64, 0, 1<<14)
				for {
					t0 := time.Now()
					if !t0.Before(deadline) {
						return
					}
					ok := op(seq.take(), &scratch)
					p.lat = append(p.lat, ms(time.Since(t0)))
					if !ok {
						p.failed++
					}
				}
			}(&parts[c])
		}
		wg.Wait()
	})
	for _, p := range parts {
		res.LatMs = append(res.LatMs, p.lat...)
		res.Failed += p.failed
	}
	return res
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// waitUntil returns at due, and reports whether there was anything to wait
// for. A timer in this sandbox fires up to 1.2 ms late (a parked thread
// waits in epoll, whose timeout counts in milliseconds), which is longer
// than most operations here take, so only the bulk of a long wait is slept
// and the rest is spent in a loop on the clock. The loop does not yield:
// every runtime.Gosched wakes another thread to look for work, and that
// traffic showed as milliseconds of latency in the server under test. A
// waiting client therefore holds its processor, which costs the server
// nothing as long as a processor is free: an HTTP client parks while its
// request is in flight, and mixed_rw's writer leaves the reader one of two.
func waitUntil(due time.Time) bool {
	const timerSlack = 2 * time.Millisecond
	wait := time.Until(due)
	if wait <= 0 {
		return false
	}
	if wait > timerSlack {
		time.Sleep(wait - timerSlack)
	}
	for time.Now().Before(due) {
	}
	return true
}

// openLoop issues operations at rate per second for d over at most clients
// connections. Operation k is due at start + k/rate; a client that is free
// waits for the next due time, and the operation's latency runs from its
// due time, not from when it was sent.
func openLoop(clients int, rate float64, d time.Duration, seq *sequence, op opFunc) loopResult {
	type part struct {
		lat    []float64
		lag    []float64
		failed int
	}
	parts := make([]part, clients)
	interval := time.Duration(float64(time.Second) / rate)
	total := int64(float64(d) / float64(interval))
	var res loopResult
	var slot atomic.Int64
	res.Mallocs, res.AllocBytes, res.Elapsed = measured(func() {
		start := time.Now()
		var wg sync.WaitGroup
		for c := range parts {
			wg.Add(1)
			go func(p *part) {
				defer wg.Done()
				var scratch bytes.Buffer
				for {
					k := slot.Add(1) - 1
					if k >= total {
						return
					}
					due := start.Add(time.Duration(k) * interval)
					if waitUntil(due) {
						// This client was idle when the operation fell due, so
						// any delay from here is the generator's, not the system's.
						p.lag = append(p.lag, ms(time.Since(due)))
					}
					ok := op(seq.take(), &scratch)
					p.lat = append(p.lat, ms(time.Since(due)))
					if !ok {
						p.failed++
					}
				}
			}(&parts[c])
		}
		wg.Wait()
	})
	for _, p := range parts {
		res.LatMs = append(res.LatMs, p.lat...)
		res.LagMs = append(res.LagMs, p.lag...)
		res.Failed += p.failed
	}
	return res
}
