package core

import (
	"fmt"
	"testing"
)

// BenchmarkSchedulerOverhead isolates the scheduler's own per-shard cost:
// one plan of 64 no-op shards run through runSet on one and on two workers,
// against serialRun, which plans, derives the same shard seeds, calls each
// shard directly and reduces. Shards do no work, so the ns/shard gap
// between "direct" and "runSet" is what the pipeline adds to every shard:
// task queueing, worker hand-off, progress bookkeeping and delivery.
func BenchmarkSchedulerOverhead(b *testing.B) {
	const n = 64
	shards := make([]Shard, n)
	for i := range shards {
		shards[i] = Shard{Label: "noop", Run: func(Options) (any, error) { return nil, nil }}
	}
	exp := Experiment{ID: "noop", Title: "no-op shards", PaperRef: "bench",
		Plan: func(Options) ([]Shard, Reduce, error) {
			return shards, func(Options, []any) (*Result, error) { return newResult(), nil }, nil
		}}
	o := DefaultOptions()
	perShard := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/shard")
	}
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := serialRun(exp, o); err != nil {
				b.Fatal(err)
			}
		}
		perShard(b)
	})
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("runSet/workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			cfg := RunConfig{Workers: workers}
			for i := 0; i < b.N; i++ {
				if _, err := runSet([]Experiment{exp}, o, cfg, nil); err != nil {
					b.Fatal(err)
				}
			}
			perShard(b)
		})
	}
}
