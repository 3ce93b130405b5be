package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"sync"

	"repro/internal/obs"
)

// resultCache is a bounded LRU over serialized transform results. Keys are
// execKeys, which embed the view's MVCC version — so a ReplaceXMLView makes
// every prior entry for that view unreachable (natural invalidation) and
// the LRU bound eventually reclaims them.
type resultCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recent
	idx map[string]*list.Element

	hits, misses uint64
	evictions    *obs.Counter // xsltd_result_cache_evictions_total
}

type cacheEntry struct {
	key  string
	body response
}

// ResultCacheStats is a point-in-time snapshot of the cache counters.
type ResultCacheStats struct {
	Size      int    `json:"size"`
	Capacity  int    `json:"capacity"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

func newResultCache(capacity int, evictions *obs.Counter) *resultCache {
	if capacity < 0 {
		capacity = 0
	}
	return &resultCache{cap: capacity, ll: list.New(), idx: map[string]*list.Element{}, evictions: evictions}
}

func (c *resultCache) get(key string) (response, bool) {
	if c.cap == 0 {
		return response{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.idx[key]
	if !ok {
		c.misses++
		return response{}, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

func (c *resultCache) put(key string, body response) {
	if c.cap == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.idx[key]; ok {
		el.Value.(*cacheEntry).body = body
		c.ll.MoveToFront(el)
		return
	}
	c.idx[key] = c.ll.PushFront(&cacheEntry{key: key, body: body})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.idx, oldest.Value.(*cacheEntry).key)
		c.evictions.Inc()
	}
}

func (c *resultCache) stats() ResultCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ResultCacheStats{
		Size: c.ll.Len(), Capacity: c.cap,
		Hits: c.hits, Misses: c.misses, Evictions: uint64(c.evictions.Value()),
	}
}

// sheetHash is the stylesheet identity folded into exec keys.
func sheetHash(stylesheet string) string {
	sum := sha256.Sum256([]byte(stylesheet))
	return hex.EncodeToString(sum[:8])
}
