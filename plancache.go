package xsltdb

import (
	"encoding/hex"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/relstore"
	"repro/internal/xq2sql"
)

// planCache is the database's compiled-plan cache: compile once, run many.
// Entries are keyed by (view, view version, stylesheet hash, plan options),
// so a view redefinition naturally misses — and ReplaceXMLView additionally
// evicts the stale entries to bound memory. Run-time inputs — WithParam
// bindings, WithWhere predicates, WithoutPushdown — are deliberately NOT
// part of the key: a parameterized plan compiles once and serves every
// binding (the point of bind variables), so running the same transform with
// a thousand different parameters still costs one compilation. Concurrent compilations of the
// same key are deduplicated singleflight-style: the first caller compiles,
// the rest block on the entry's done channel and share the result.
type planCache struct {
	mu      sync.Mutex
	entries map[planKey]*planEntry
	hits    atomic.Int64
	misses  atomic.Int64
	// missesBy counts actual compilations per key — kept separate from the
	// entries map so the count survives eviction (a view redefinition that
	// forces a recompile should show as misses 2, not reset to 1).
	missesBy map[planKey]int64
}

type planEntry struct {
	done chan struct{} // closed when st/err are set
	st   *planState
	err  error

	// Console bookkeeping for /plans.
	hits        atomic.Int64  // get() calls served by this entry
	compileWall time.Duration // how long the compilation took
	created     time.Time     // when the compilation finished
}

// get returns the cached state for key, or claims the key and runs compile.
// The second return reports whether the result came from the cache (true
// for waiters that shared an in-flight compile). Failed compilations are
// not cached: the entry is removed so a later call retries, and every
// in-flight waiter receives the error.
func (c *planCache) get(key planKey, compile func() (*planState, error)) (*planState, bool, error) {
	c.mu.Lock()
	if c.entries == nil {
		c.entries = map[planKey]*planEntry{}
	}
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		<-e.done
		if e.err != nil {
			return nil, true, e.err
		}
		c.hits.Add(1)
		e.hits.Add(1)
		return e.st, true, nil
	}
	e := &planEntry{done: make(chan struct{})}
	c.entries[key] = e
	if c.missesBy == nil {
		c.missesBy = map[planKey]int64{}
	}
	c.missesBy[key]++
	c.mu.Unlock()

	c.misses.Add(1)
	compileStart := time.Now()
	e.st, e.err = compile()
	e.compileWall = time.Since(compileStart)
	e.created = time.Now()
	if e.err != nil {
		c.mu.Lock()
		delete(c.entries, key)
		c.mu.Unlock()
	}
	close(e.done)
	return e.st, false, e.err
}

// contains reports whether key has a completed, successful cache entry —
// the plan-cache status line of ExplainPlan/ExplainAnalyze.
func (c *planCache) contains(key planKey) bool {
	c.mu.Lock()
	e, ok := c.entries[key]
	c.mu.Unlock()
	if !ok {
		return false
	}
	select {
	case <-e.done:
		return e.err == nil
	default:
		return false
	}
}

// evictView drops every cached plan compiled against the named view.
func (c *planCache) evictView(view string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k := range c.entries {
		if k.view == view {
			delete(c.entries, k)
		}
	}
}

// whereMemoCap bounds the where memo. A serving workload reuses a handful of
// where texts with different parameters, so the bound only matters against
// callers that build the text per request; past it, an arbitrary entry makes
// room.
const whereMemoCap = 1024

// whereKey is one lowering: a view definition (each CreateXMLView or
// ReplaceXMLView installs a new one) and a WithWhere text over it.
type whereKey struct {
	view *ViewDef
	text string
}

// whereMemo holds each WithWhere text lowered against the view it names:
// the driving-table predicates with their ParamValue slots still unbound,
// which every run binds into its own spec. A run that repeats a text takes a
// read lock and a map lookup instead of parsing XPath and rebuilding the
// view tree. Lowering errors are not kept, so an invalid text fails the
// same way every time; ReplaceXMLView evicts the view's entries.
type whereMemo struct {
	mu      sync.RWMutex
	entries map[whereKey][]relstore.Pred
}

// lower returns text lowered against view. The slice is shared by every run
// of the text and READ-ONLY.
func (m *whereMemo) lower(view *ViewDef, text string) ([]relstore.Pred, error) {
	key := whereKey{view, text}
	m.mu.RLock()
	preds, ok := m.entries[key]
	m.mu.RUnlock()
	if ok {
		return preds, nil
	}
	preds, err := xq2sql.ExtractWhere(view, text)
	if err != nil {
		return nil, err
	}
	preds = preds[:len(preds):len(preds)] // an append by a caller copies
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.entries == nil {
		m.entries = map[whereKey][]relstore.Pred{}
	}
	if _, ok := m.entries[key]; !ok && len(m.entries) >= whereMemoCap {
		for k := range m.entries {
			delete(m.entries, k)
			break
		}
	}
	m.entries[key] = preds
	return preds, nil
}

// evictView drops every lowering against the named view.
func (m *whereMemo) evictView(view string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k := range m.entries {
		if k.view.Name == view {
			delete(m.entries, k)
		}
	}
}

// PlanCacheStats reports plan-cache effectiveness. CacheHits counts
// compilations served from the cache (including singleflight waiters that
// shared an in-flight compile); CacheMisses counts actual compilations.
type PlanCacheStats struct {
	CacheHits   int64
	CacheMisses int64
	Entries     int
}

// PlanCacheStats returns a snapshot of the compiled-plan cache counters.
func (d *Database) PlanCacheStats() PlanCacheStats {
	d.plans.mu.Lock()
	n := len(d.plans.entries)
	d.plans.mu.Unlock()
	return PlanCacheStats{
		CacheHits:   d.plans.hits.Load(),
		CacheMisses: d.plans.misses.Load(),
		Entries:     n,
	}
}

// PlanCacheEntry describes one cached compilation, as served by the debug
// console's /plans endpoint and Database.PlanCacheEntries.
type PlanCacheEntry struct {
	// View and ViewVersion identify the view the plan compiled against.
	View        string `json:"view"`
	ViewVersion int    `json:"view_version"`
	// StylesheetHash is a prefix of the stylesheet's SHA-256 (enough to
	// tell plans apart without dumping stylesheet text).
	StylesheetHash string `json:"stylesheet_hash"`
	// Options is the canonicalized plan-affecting option string ("" for
	// defaults).
	Options string `json:"options,omitempty"`
	// Strategy is the compiled strategy; Fallback says why a stronger one
	// was not reachable ("" when the strongest compiled).
	Strategy string `json:"strategy"`
	Fallback string `json:"fallback,omitempty"`
	// Hits counts get() calls this entry served; Misses counts actual
	// compilations of this key (>1 after a view redefinition forced a
	// recompile).
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// CompileWall is the compilation's wall time; Age is time since it
	// finished.
	CompileWall time.Duration `json:"compile_wall_ns"`
	Age         time.Duration `json:"age_ns"`
}

// PlanCacheEntries snapshots the compiled-plan cache entry by entry: which
// plans are cached, how they compiled, and how hard each one is working.
// In-flight and failed compilations are skipped. Entries sort by view, then
// strategy, then stylesheet hash.
func (d *Database) PlanCacheEntries() []PlanCacheEntry {
	c := &d.plans
	c.mu.Lock()
	type snap struct {
		key planKey
		e   *planEntry
	}
	snaps := make([]snap, 0, len(c.entries))
	for k, e := range c.entries {
		snaps = append(snaps, snap{k, e})
	}
	misses := make(map[planKey]int64, len(c.missesBy))
	for k, n := range c.missesBy {
		misses[k] = n
	}
	c.mu.Unlock()

	out := make([]PlanCacheEntry, 0, len(snaps))
	for _, s := range snaps {
		select {
		case <-s.e.done:
		default:
			continue // compilation in flight
		}
		if s.e.err != nil || s.e.st == nil {
			continue
		}
		out = append(out, PlanCacheEntry{
			View:           s.key.view,
			ViewVersion:    s.key.version,
			StylesheetHash: hex.EncodeToString(s.key.sheet[:6]),
			Options:        s.key.opts,
			Strategy:       s.e.st.strategy.String(),
			Fallback:       s.e.st.fallback,
			Hits:           s.e.hits.Load(),
			Misses:         misses[s.key],
			CompileWall:    s.e.compileWall,
			Age:            time.Since(s.e.created),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].View != out[j].View {
			return out[i].View < out[j].View
		}
		if out[i].Strategy != out[j].Strategy {
			return out[i].Strategy < out[j].Strategy
		}
		return out[i].StylesheetHash < out[j].StylesheetHash
	})
	return out
}
