// The in-memory tier: a bounded LRU of marshaled result payloads keyed by
// content address. Hits return the exact bytes the first run produced,
// which is what makes repeated requests byte-identical. Two bounds apply
// together: an entry-count cap, and an optional byte cap weighting every
// entry by its payload size — the honest bound for a cache whose entries
// range from a one-experiment document to a 25-scale full-suite section.

package store

import "sync"

// Memory is the in-process LRU result store (tier 1).
type Memory struct {
	mu  sync.Mutex
	lru lru
}

// NewMemory builds a memory store bounded to maxEntries entries (at least
// one) and, when maxBytes > 0, to maxBytes of summed payload.
func NewMemory(maxEntries int, maxBytes int64) *Memory {
	return &Memory{lru: newLRU(max(maxEntries, 1), maxBytes)}
}

// Get returns the cached payload and refreshes its recency.
func (c *Memory) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.lru.get(key)
	if !ok {
		return nil, false
	}
	return e.payload, true
}

// Has reports residency without touching recency: pure existence checks
// (e.g. the sweep-eviction probe) must not promote entries nobody read.
func (c *Memory) Has(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.has(key)
}

// Put stores a payload, evicting least-recently-used entries while either
// bound is exceeded; a payload larger than the byte bound is kept alone.
func (c *Memory) Put(key string, payload []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.put(key, int64(len(payload)), payload)
}

// Stats reports the resident entries and bytes and the two bounds.
func (c *Memory) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.stats()
}
