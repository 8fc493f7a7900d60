// Per-configuration singleflight. Job-level deduplication (admit's
// singleflight on the content address) collapses *identical* requests,
// but a sweep and a single job — or two overlapping sweeps — can cover
// the same configuration under different job addresses, and the cache
// only helps once someone has finished. This registry closes that gap:
// an executor claims each configuration key before simulating it, and a
// concurrent executor needing the same configuration waits for the
// holder and then reads the cache instead of running a duplicate.
//
// Deadlock freedom: claims are held only while actually executing, never
// while waiting — execute waits on other holders only after releasing
// every claim of its own, then retries the claims — so the wait graph
// never contains a cycle (a holder always runs to completion without
// blocking on another claim).

package service

import "sync"

// inflight tracks configuration keys currently being simulated.
type inflight struct {
	mu sync.Mutex
	m  map[string]chan struct{}
}

func newInflight() *inflight {
	return &inflight{m: map[string]chan struct{}{}}
}

// begin claims key for the caller. On success (ok true) the caller must
// call end(key) when the configuration's payload is in the cache (or its
// run failed). On failure, wait is a channel closed when the current
// holder releases — after which the caller re-probes the cache and, if
// the holder failed, retries the claim.
func (f *inflight) begin(key string) (wait <-chan struct{}, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if ch, held := f.m[key]; held {
		return ch, false
	}
	f.m[key] = make(chan struct{})
	return nil, true
}

// end releases a claim taken by begin, waking every waiter.
func (f *inflight) end(key string) {
	f.mu.Lock()
	ch := f.m[key]
	delete(f.m, key)
	f.mu.Unlock()
	if ch != nil {
		close(ch)
	}
}
