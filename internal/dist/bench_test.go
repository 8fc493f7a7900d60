package dist

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"zen2ee/internal/core"
)

// BenchmarkDistributedDispatchOverhead measures the full cost of pushing
// one shard through the coordinator instead of calling it directly: HTTP
// lease round-trip, gob codec both ways, and lease bookkeeping, against a
// loopback worker whose Execute is free. This is the per-shard tax of
// distribution — worthwhile exactly when shard execution time dwarfs it.
func BenchmarkDistributedDispatchOverhead(b *testing.B) {
	c := NewCoordinator(Config{})
	defer c.Close()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	w, err := NewWorker(WorkerConfig{
		Coordinator: ts.URL, Name: "bench", Slots: 2,
		Execute: func(TaskSpec) (any, error) { return 1.0, nil },
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); w.Run(ctx) }()
	defer func() { cancel(); <-done }()
	for deadline := time.Now().Add(5 * time.Second); c.WorkersConnected() == 0; {
		if time.Now().After(deadline) {
			b.Fatal("bench worker never registered")
		}
		time.Sleep(time.Millisecond)
	}

	h := c.StartRun(nil)
	defer h.Finish()
	st := core.ShardTask{
		Ref:    core.ShardRef{Exp: "tab1", Config: core.Config{Scale: 1, Seed: 1}, Shard: 0},
		Shards: 1, Label: "bench",
		Run: func() (any, error) { return 1.0, nil },
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := h.RunShard(st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchedLeaseDispatch measures per-shard dispatch overhead with
// many shards in flight — the shape a real sweep presents — across worker
// slot counts. The coordinator sizes each grant from the registered slots
// (up to 2 × slots leases held), so with slots=1 a shard pays most of a
// lease round trip, while with more slots one long-poll fans out to all
// idle slots and the HTTP overhead amortizes across the grant. On a
// single-core machine the ratio understates the win: fetcher, slots, and
// posters all serialize onto one CPU, so the amortized lease traffic is
// the only saving that shows up.
func BenchmarkBatchedLeaseDispatch(b *testing.B) {
	for _, slots := range []int{1, 8, 16} {
		b.Run(fmt.Sprintf("slots=%d", slots), func(b *testing.B) {
			c := NewCoordinator(Config{})
			defer c.Close()
			ts := httptest.NewServer(c.Handler())
			defer ts.Close()
			w, err := NewWorker(WorkerConfig{
				Coordinator: ts.URL, Name: "bench", Slots: slots,
				Execute: func(TaskSpec) (any, error) { return 1.0, nil },
			})
			if err != nil {
				b.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func() { defer close(done); w.Run(ctx) }()
			defer func() { cancel(); <-done }()
			for deadline := time.Now().Add(5 * time.Second); c.WorkersConnected() == 0; {
				if time.Now().After(deadline) {
					b.Fatal("bench worker never registered")
				}
				time.Sleep(time.Millisecond)
			}

			h := c.StartRun(nil)
			defer h.Finish()
			st := core.ShardTask{
				Ref:    core.ShardRef{Exp: "tab1", Config: core.Config{Scale: 1, Seed: 1}, Shard: 0},
				Shards: 1, Label: "bench",
				Run: func() (any, error) { return 1.0, nil },
			}
			sem := make(chan struct{}, 64)
			var wg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sem <- struct{}{}
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { <-sem }()
					if _, _, err := h.RunShard(st); err != nil {
						b.Error(err)
					}
				}()
			}
			wg.Wait()
		})
	}
}

// BenchmarkLocalDispatchBaseline is the same shard executed directly —
// the number the distributed overhead is read against.
func BenchmarkLocalDispatchBaseline(b *testing.B) {
	run := func() (any, error) { return 1.0, nil }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := run(); err != nil {
			b.Fatal(err)
		}
	}
}
