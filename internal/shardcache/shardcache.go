// Package shardcache memoizes shard outputs at their deterministic wire
// address. core.ShardRef already names each shard's work completely —
// experiment ID, the experiment's canonical (Scale, Seed) configuration,
// shard index — and shard execution is deterministic by construction
// (per-shard RNG streams are derived, reduction order is fixed), so a shard
// output is a pure function of its ref. That makes shard results
// content-addressable the same way whole result documents are: this package
// hashes the canonical ref plus a registry/version salt into a store key
// and keeps gob-encoded outputs in the existing store.ResultStore tiers.
// The canonical configuration of a seed-free experiment carries the default
// seed at every run seed, so jobs at different seeds share its entries: a
// cold job at a new seed serves those shards from the cache.
//
// The cache plugs into the scheduler at the core.RunConfig.RunShard seam
// via WrapRunShard, in front of whatever dispatcher (the local thunk, or a
// dist.Coordinator) would otherwise execute the shard. A hit
// skips execution entirely and — because gob round-trips float64 values
// bit-exactly — leaves the run's result document byte-identical to a cold
// run's. A partially warm sweep therefore re-executes only its missing
// shards, and a sweep killed mid-flight over a persistent store resumes
// from its last completed shard.
//
// Invalidation is by key, never by mutation: the salt folds a codec
// version and the ordered experiment registry into every key, so a binary
// whose registry changed simply misses the old entries and recomputes
// (see DefaultSalt).
package shardcache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"zen2ee/internal/core"
	"zen2ee/internal/obs"
	"zen2ee/internal/store"
)

// keyVersion is bumped whenever the key schema, the codec's encoding of
// existing output types or the meaning of a cached output changes
// incompatibly; old entries then miss instead of decoding wrong, in either
// direction between builds. Version 2: a whole experiment's cached output
// is a *core.Result without ID, Title and PaperRef (the reducer stamps
// them), which a version-1 build would serve with an empty id.
// Canonicalizing seed-free refs to the default seed did not bump it: every
// entry such a ref now hits was stored by a seed-1 run, computed on the
// same DeriveSeed(1, id) stream it would compute today, so it stays valid;
// entries at other seeds are never addressed again.
const keyVersion = "2"

// DefaultSalt derives the standard cache salt: the key-schema version plus
// the ordered experiment registry. Any registry change — an experiment
// added, removed, or reordered — changes the salt and therefore every key,
// invalidating entries whose plans might have changed out from under their
// refs without trusting any entry-by-entry versioning.
func DefaultSalt() string {
	exps := core.Registry()
	ids := make([]string, 0, len(exps))
	for _, e := range exps {
		ids = append(ids, e.ID)
	}
	return keyVersion + ";registry=" + strings.Join(ids, ",")
}

// Key computes the store key for one shard: 64 hex chars of SHA-256 over
// the canonical ref string and the salt. A scheduler-built ref already
// carries the experiment's canonical configuration (the default seed for a
// seed-free experiment), so Key hashes the ref as given. Scale is rendered
// with strconv.FormatFloat 'g'/-1, the shortest exact form, so equal
// float64 values — and only equal values — share a key.
func Key(ref core.ShardRef, salt string) string {
	h := sha256.New()
	fmt.Fprintf(h, "shard;v=%s;exp=%s;scale=%s;seed=%d;shard=%d",
		salt, ref.Exp, strconv.FormatFloat(ref.Config.Scale, 'g', -1, 64), ref.Config.Seed, ref.Shard)
	return hex.EncodeToString(h.Sum(nil))
}

// Stats is a point-in-time snapshot of a Cache, exported as the daemon's
// zen2eed_shard_cache_* metrics series.
type Stats struct {
	// Hits counts shard executions skipped entirely; Misses counts probes
	// that fell through to execution (including entries that failed to
	// decode, which degrade to a miss).
	Hits, Misses uint64
	// BytesServed sums the encoded payload sizes of the hits.
	BytesServed uint64
}

// Cache is a shard-output memoization layer over a ResultStore. It is safe
// for concurrent use to exactly the degree the underlying store is — every
// method is a single store call plus atomic counters.
type Cache struct {
	store store.ResultStore
	salt  string

	hits, misses, bytes atomic.Uint64
}

// New builds a cache over st. An empty salt selects DefaultSalt. The cache
// shares the store with its caller (the zen2eed daemon keeps its result
// documents in the same store).
func New(st store.ResultStore, salt string) *Cache {
	if salt == "" {
		salt = DefaultSalt()
	}
	return &Cache{store: st, salt: salt}
}

// Lookup probes the store for ref's output. A resident entry that fails to
// decode (truncation, codec version skew surviving a salt collision)
// degrades to a miss — the shard re-executes and overwrites it.
func (c *Cache) Lookup(ref core.ShardRef) (any, bool) {
	payload, ok := c.store.Get(Key(ref, c.salt))
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	out, err := DecodeOutput(payload)
	if err != nil {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	c.bytes.Add(uint64(len(payload)))
	return out, true
}

// Store records ref's output. An output type the codec cannot encode is
// skipped silently — the cache is an accelerator, and a shard that
// executed successfully must never fail for being uncacheable (the dist
// wire path, by contrast, fails such shards loudly: there the encoding IS
// the result).
func (c *Cache) Store(ref core.ShardRef, out any) {
	payload, err := EncodeOutput(out)
	if err != nil {
		return
	}
	c.store.Put(Key(ref, c.salt), payload)
}

// Stats snapshots the hit/miss counters.
func (c *Cache) Stats() Stats {
	return Stats{Hits: c.hits.Load(), Misses: c.misses.Load(), BytesServed: c.bytes.Load()}
}

// OriginCache is the origin string attached to cache-served shard spans,
// so traced warm runs attribute skipped executions the way distributed
// runs attribute remote ones.
const OriginCache = "shard-cache"

// WrapRunShard builds a core.RunConfig.RunShard hook that consults the
// cache before dispatching. next is the hook the cache fronts — a
// dist.Coordinator's RunShard, or nil for plain local execution via the
// task's own thunk. Misses execute through next and backfill the cache on
// success; hits skip execution — so they hold no core.RunConfig.Acquire
// slot, which gates only the task's thunk — record a CatCache span on tr
// (which may be nil), and report OriginCache as the shard's origin.
func (c *Cache) WrapRunShard(next func(core.ShardTask) (any, string, error), tr *obs.Trace) func(core.ShardTask) (any, string, error) {
	return func(st core.ShardTask) (any, string, error) {
		var start time.Time
		if tr.Enabled() {
			start = time.Now()
		}
		if out, ok := c.Lookup(st.Ref); ok {
			if tr.Enabled() {
				tr.Add(obs.Span{
					Cat: obs.CatCache, Name: st.Ref.Exp,
					Config: st.ConfigIndex, Shard: st.Ref.Shard + 1,
					Label: st.Label, Worker: -1, Origin: OriginCache,
					Start: tr.Offset(start), Dur: time.Since(start),
				})
			}
			return out, OriginCache, nil
		}
		var out any
		var origin string
		var err error
		if next != nil {
			out, origin, err = next(st)
		} else {
			out, err = st.Run()
		}
		if err == nil {
			c.Store(st.Ref, out)
		}
		return out, origin, err
	}
}
