// The tiered store: Memory over Disk. Gets probe the memory LRU first and
// fall through to disk on a miss, promoting the payload back into memory —
// an entry the memory bound evicted is resurrected from disk instead of
// recomputed, and a freshly restarted daemon serves its predecessor's
// results warm. Puts write through to both tiers, so the disk view is
// always a superset of memory (modulo its own eviction) and two daemons
// sharing one directory warm each other.

package store

// Tiered composes a memory tier over a disk tier.
type Tiered struct {
	mem  *Memory
	disk *Disk
}

// NewTiered builds the two-tier store.
func NewTiered(mem *Memory, disk *Disk) *Tiered {
	return &Tiered{mem: mem, disk: disk}
}

// Get probes memory, then disk; a disk hit is promoted into memory so the
// next request for a hot entry never touches the filesystem.
func (t *Tiered) Get(key string) ([]byte, bool) {
	if payload, ok := t.mem.Get(key); ok {
		return payload, true
	}
	payload, ok := t.disk.Get(key)
	if !ok {
		return nil, false
	}
	t.mem.Put(key, payload)
	return payload, true
}

// Has probes memory then disk; unlike Get it reads no payload and
// promotes nothing — existence checks must not churn the memory tier.
func (t *Tiered) Has(key string) bool {
	return t.mem.Has(key) || t.disk.Has(key)
}

// Put writes through to both tiers.
func (t *Tiered) Put(key string, payload []byte) {
	t.mem.Put(key, payload)
	t.disk.Put(key, payload)
}

// Stats reports the memory tier's occupancy and bounds (the
// zen2eed_cache_* gauges keep meaning what they always meant) with the
// disk tier's snapshot.
func (t *Tiered) Stats() Stats {
	st := t.mem.Stats()
	st.Disk = t.disk.Stats().Disk
	return st
}
