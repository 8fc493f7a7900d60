package main

import (
	"fmt"
	"time"

	"zen2ee/internal/sim"
	"zen2ee/internal/store"
)

// storeEntries bounds the daemon's in-memory result store, as `zen2eed
// -cache 4096` does: room for every shard and document a run's last few
// seconds produce, so a sweep's cached shards and sections are still there
// when the sweep's client reads them.
const storeEntries = 4096

// deriveSeed is position i of a named seed stream of the run seed.
func deriveSeed(seed uint64, stream string, i int) uint64 {
	if s := sim.DeriveSeed(seed, fmt.Sprintf("%s/%d", stream, i)); s != 0 {
		return s
	}
	return 1
}

// newStore builds the daemon's result store. Traced runs wrap it to time
// every Get and Put.
func (b *bench) newStore() store.ResultStore {
	st := store.NewMemory(storeEntries, 0)
	if !b.tr.Enabled() {
		return st
	}
	return &timedStore{ResultStore: st, b: b}
}

// timedStore records a span per Get and Put of the store it wraps.
type timedStore struct {
	store.ResultStore
	b *bench
}

func (s *timedStore) Get(key string) ([]byte, bool) {
	start := time.Now()
	p, ok := s.ResultStore.Get(key)
	s.b.span(newSpan("store.get", s.b.currentOp()), start)
	return p, ok
}

func (s *timedStore) Put(key string, payload []byte) {
	start := time.Now()
	s.ResultStore.Put(key, payload)
	s.b.span(newSpan("store.put", s.b.currentOp()), start)
}
