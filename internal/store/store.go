// Package store is the daemon's persistent, tiered result store. The
// simulation's one load-bearing property — a result payload is fully
// determined by its content address (experiment set, Scale, Seed) — makes
// result storage a pure key→bytes problem: entries never change, never
// expire semantically, and can be shared freely between processes. The
// package provides three implementations of one ResultStore interface:
//
//   - Memory: the in-process LRU the daemon has always had (tier 1);
//   - Disk: a content-addressed on-disk backend with fsync'd temp+rename
//     writes and byte-bounded LRU eviction — results survive restarts and
//     a directory can be shared between daemons (tier 2). Each object is
//     framed with its payload length and a CRC-32C, checked on every read:
//     a torn or corrupted file reads as a miss and is removed, never served;
//   - Tiered: Memory over Disk — gets fall through to disk on a memory
//     miss (resurrecting evicted entries instead of recomputing), puts
//     write through to both tiers.
//
// Both tiers keep their recency order and bounds in one unexported LRU
// index (an entry bound and a byte bound); a store's bounds live only
// there, and Stats reads them back, so whoever reports a store's numbers
// reads them from the store itself.
//
// Because hits return the exact bytes the first run produced, every tier
// preserves the daemon's byte-identical-responses guarantee: where a
// payload is stored never changes what is served.
package store

// ResultStore is a keyed payload store for canonical result documents.
// Keys are content addresses (64 hex chars of SHA-256); payloads are
// immutable once written — a second Put under the same key carries the
// same bytes by construction.
type ResultStore interface {
	// Get returns the payload stored under key and refreshes its recency.
	Get(key string) ([]byte, bool)
	// Has reports whether key is resident in any tier, without reading
	// the payload, refreshing recency, or promoting between tiers — an
	// existence probe cheap enough to call while holding unrelated locks.
	Has(key string) bool
	// Put stores a payload, evicting least-recently-used entries past the
	// implementation's bounds.
	Put(key string, payload []byte)
	// Stats snapshots the store: the values behind the daemon's
	// zen2eed_cache_* and zen2eed_store_disk_* series.
	Stats() Stats
}

// Stats is a point-in-time snapshot of a store.
type Stats struct {
	// Entries and Bytes describe the fastest tier's resident set (the
	// memory LRU for Tiered); MaxEntries and MaxBytes are its bounds
	// (0 = unbounded).
	Entries, MaxEntries int
	Bytes, MaxBytes     int64
	// Disk is the persistent tier's snapshot; nil when there is none.
	Disk *DiskStats
}

// DiskStats is a point-in-time snapshot of a Disk store, exported as the
// daemon's zen2eed_store_disk_* metrics series.
type DiskStats struct {
	// Entries and Bytes describe the resident object set, in payload
	// bytes (frames excluded).
	Entries int
	Bytes   int64
	// CapacityBytes is the configured byte bound (0 = unbounded).
	CapacityBytes int64
	// Hits and Misses count Get outcomes; Evictions counts objects removed
	// by the byte bound; Errors counts failed reads/writes (corrupt,
	// truncated or externally removed files, full disks) — the store
	// degrades to a miss rather than failing the request.
	Hits, Misses, Evictions, Errors uint64
}
