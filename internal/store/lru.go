// The least-recently-used index both tiers keep: keys in recency order,
// each weighted by its payload size, under an entry bound and a byte
// bound. It holds no lock; each tier guards its own.

package store

import "container/list"

// lru is a recency-ordered index bounded to maxEntries keys and maxBytes
// of summed payload size (0 = unbounded, for either).
type lru struct {
	maxEntries int
	maxBytes   int64
	bytes      int64
	order      *list.List // front = most recently used
	items      map[string]*list.Element
}

// lruEntry is one indexed key. payload holds the memory tier's bytes; the
// disk tier keeps them in files and leaves it nil.
type lruEntry struct {
	key     string
	size    int64
	payload []byte
}

func newLRU(maxEntries int, maxBytes int64) lru {
	return lru{maxEntries: max(maxEntries, 0), maxBytes: max(maxBytes, 0), order: list.New(), items: map[string]*list.Element{}}
}

// get returns key's entry and makes it the most recently used.
func (l *lru) get(key string) (*lruEntry, bool) {
	el, ok := l.items[key]
	if !ok {
		return nil, false
	}
	l.order.MoveToFront(el)
	return el.Value.(*lruEntry), true
}

// has reports whether key is indexed, leaving its recency alone.
func (l *lru) has(key string) bool {
	_, ok := l.items[key]
	return ok
}

// put indexes key (or updates it) as the most recently used, then evicts
// least-recently-used entries while either bound is exceeded, and returns
// the evicted keys. The entry just put is never evicted: one larger than
// the byte bound is kept alone rather than rejected, since refusing it
// would make the next identical request recompute what was just computed.
func (l *lru) put(key string, size int64, payload []byte) (victims []string) {
	if el, ok := l.items[key]; ok {
		e := el.Value.(*lruEntry)
		l.bytes += size - e.size
		e.size, e.payload = size, payload
		l.order.MoveToFront(el)
	} else {
		l.items[key] = l.order.PushFront(&lruEntry{key: key, size: size, payload: payload})
		l.bytes += size
	}
	for l.order.Len() > 1 &&
		((l.maxEntries > 0 && l.order.Len() > l.maxEntries) || (l.maxBytes > 0 && l.bytes > l.maxBytes)) {
		oldest := l.order.Back().Value.(*lruEntry)
		l.remove(oldest.key)
		victims = append(victims, oldest.key)
	}
	return victims
}

// remove drops key from the index, if it is there.
func (l *lru) remove(key string) {
	el, ok := l.items[key]
	if !ok {
		return
	}
	l.order.Remove(el)
	delete(l.items, key)
	l.bytes -= el.Value.(*lruEntry).size
}

// stats reports the index's occupancy and bounds.
func (l *lru) stats() Stats {
	return Stats{Entries: l.order.Len(), MaxEntries: l.maxEntries, Bytes: l.bytes, MaxBytes: l.maxBytes}
}
