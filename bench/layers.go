package main

import (
	"runtime"
	"time"

	"zen2ee"
	"zen2ee/internal/obs"
	"zen2ee/internal/sim"
)

// microbenchmarks times the two innermost layers in isolation, where no
// workload can separate them: the event engine under a fixed mixed load,
// and the machine refresh with every CPU busy.
func microbenchmarks(size sizing) map[string]Metric {
	ns, allocs, events := simLoad(size.simEvents)
	us, mallocs := machineLoad(size.advances)
	return map[string]Metric{
		"sim.ns_per_event":           {Value: ns, N: events},
		"sim.allocs_per_event":       {Value: allocs, N: events},
		"machine.us_per_advance":     {Value: us, N: size.advances},
		"machine.allocs_per_advance": {Value: mallocs, N: size.advances},
	}
}

// simLoad drives an engine through at least n events of a machine-shaped
// mix: 32 staggered 1 ms tickers, one-shot events at varied delays, a third
// of them cancelled before they fire.
func simLoad(n int) (nsPerEvent, allocsPerEvent float64, events int) {
	e := sim.NewEngine(1)
	fn := func() {}
	for i := 0; i < 32; i++ {
		tk := e.NewTicker(sim.Millisecond, sim.Duration(i)*sim.Microsecond, fn)
		defer tk.Stop()
	}
	e.RunFor(10 * sim.Millisecond)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	first := e.Executed()
	start := time.Now()
	for i := 0; e.Executed()-first < uint64(n); i++ {
		id := e.Schedule(sim.Duration(i%7+1)*sim.Microsecond, fn)
		if i%3 == 0 {
			e.Cancel(id)
		}
		e.Schedule(sim.Duration(i%5+1)*sim.Microsecond, fn)
		e.RunFor(20 * sim.Microsecond)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	events = int(e.Executed() - first)
	return float64(elapsed.Nanoseconds()) / float64(events),
		float64(m1.Mallocs-m0.Mallocs) / float64(events), events
}

// machineLoad times n 100 µs advances of the paper's system with every CPU
// running busywait at 2500 MHz — the machine's state refresh under load.
func machineLoad(n int) (usPerAdvance, allocsPerAdvance float64) {
	sys := zen2ee.NewSystem()
	sys.SetAllFrequenciesMHz(2500)
	for cpu := 0; cpu < sys.NumCPUs(); cpu++ {
		sys.Run(cpu, "busywait")
	}
	sys.AdvanceMillis(50)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < n; i++ {
		sys.AdvanceMicros(100)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return us(elapsed) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// spanCost is the recording cost of one span: two clock reads and an Add.
func spanCost() time.Duration {
	tr := obs.New(traceLimitBytes)
	const n = 20000
	start := time.Now()
	for i := 0; i < n; i++ {
		t := time.Now()
		tr.Add(obs.Span{Cat: "store.get", Name: "run/1", Start: tr.Offset(t), Dur: time.Since(t)})
	}
	return time.Since(start) / n
}

// layerMetrics derives the per-layer metrics of a traced run from its
// spans, samples and counters. It also returns each layer's self time and
// the lane time available to the layers (workers × measured wall); their
// difference is the time no layer owns.
func (b *bench) layerMetrics(spans []obs.Span) (map[string]Metric, map[string]float64, float64) {
	byCat := map[string][]obs.Span{}
	for _, s := range spans {
		byCat[s.Cat] = append(byCat[s.Cat], s)
	}
	durs := func(unit func(time.Duration) float64, cats ...string) []float64 {
		var out []float64
		for _, c := range cats {
			for _, s := range byCat[c] {
				out = append(out, unit(s.Dur))
			}
		}
		return out
	}
	total := func(cats ...string) float64 { return sum(durs(ms, cats...)) }

	out := map[string]Metric{}
	pct := func(name string, xs []float64, q float64) {
		if len(xs) == 0 {
			return
		}
		m := Metric{Value: percentile(xs, q), N: len(xs)}
		if q > 0.5 {
			m.Beyond = beyond(len(xs), q)
		}
		out[name] = m
	}
	ratio := func(name string, num, den float64) {
		if den > 0 {
			out[name] = Metric{Value: num / den, N: int(den)}
		}
	}
	capacity := workers * ms(b.wall)

	// core: executed shards are scheduler spans with no origin; cache hits
	// carry one.
	exec := map[string][]float64{}
	var waits []float64
	for _, s := range byCat[obs.CatShard] {
		waits = append(waits, ms(s.Wait))
		if s.Origin == "" {
			exec[s.Name] = append(exec[s.Name], ms(s.Dur))
		}
	}
	for id, xs := range exec {
		pct("core.shard_ms."+id, xs, 0.5)
	}
	longest := b.samples["core.longest_shard_ms"]
	if longest == nil {
		longest = longestPerOp(byCat["op"], byCat[obs.CatShard])
	}
	pct("core.longest_shard_ms", longest, 0.5)
	if n := len(byCat[obs.CatShard]); n > 0 && capacity > 0 {
		out["core.idle_frac"] = Metric{Value: 1 - total(obs.CatShard)/capacity, N: n}
	}
	pct("core.queue_wait_ms.p50", waits, 0.5)
	pct("core.queue_wait_ms.p99", waits, 0.99)
	pct("core.plan_ms", durs(ms, obs.CatPlan), 0.5)
	pct("core.reduce_ms", durs(ms, obs.CatReduce), 0.5)
	ratio("core.shards_per_config", float64(len(byCat[obs.CatShard])), float64(len(byCat[obs.CatDeliver])))

	pct("report.marshal_ms", durs(ms, obs.CatMarshal), 0.5)
	pct("report.doc_kb", b.samples["report.doc_kb"], 0.5)

	hits, misses := b.counters["shardcache.hits"], b.counters["shardcache.misses"]
	ratio("shardcache.hit_ratio", hits, hits+misses)
	pct("shardcache.hit_us.p50", durs(us, obs.CatCache), 0.5)

	gets, puts := durs(us, "store.get"), durs(us, "store.put")
	pct("store.get_us.p50", gets, 0.5)
	pct("store.get_us.p99", gets, 0.99)
	pct("store.put_us.p50", puts, 0.5)
	pct("store.put_us.p99", puts, 0.99)

	pct("service.submit_ms.p50", durs(ms, "http.submit"), 0.5)
	pct("service.events_ms.p50", durs(ms, "http.events"), 0.5)
	pct("service.result_ms.p50", durs(ms, "http.result"), 0.5)
	pct("service.queue_ms.p50", b.samples["service.queue_ms"], 0.5)
	pct("service.run_ms.p50", b.samples["service.run_ms"], 0.5)
	pct("service.marshal_ms.p50", b.samples["service.marshal_ms"], 0.5)
	ch, cm := b.counters["service.cache_hits"], b.counters["service.cache_misses"]
	ratio("service.cache_hit_ratio", ch, ch+cm)

	if capacity > 0 {
		cost := float64(len(spans))*ms(spanCost()) + ms(b.probe)
		out["host.trace_overhead_frac"] = Metric{Value: cost / capacity, N: len(spans)}
	}

	// Self time: each layer's spans minus the spans of other layers nested
	// inside them. Deliver spans enclose a configuration's marshal
	// (Config >= 0) and shard spans the shard-cache probe. The daemon's store
	// calls are left out: they run on HTTP goroutines beside the executor
	// lanes as well as inside cache spans, and nothing seen from outside
	// tells the two apart.
	var deliverMarshal float64
	for _, s := range byCat[obs.CatMarshal] {
		if s.Config >= 0 {
			deliverMarshal += ms(s.Dur)
		}
	}
	cache := total(obs.CatCache)
	self := map[string]float64{
		"core":       total(obs.CatShard, obs.CatPlan, obs.CatReduce, obs.CatDeliver) - cache - deliverMarshal,
		"report":     total(obs.CatMarshal),
		"shardcache": cache,
	}
	return out, self, capacity
}

// longestPerOp returns, per operation window, the longest scheduler shard
// span that started inside it. Both slices are in start order.
func longestPerOp(ops, shards []obs.Span) []float64 {
	var out []float64
	j := 0
	for _, op := range ops {
		end := op.Start + op.Dur
		longest := 0.0
		for ; j < len(shards) && shards[j].Start < end; j++ {
			if shards[j].Start >= op.Start {
				longest = max(longest, ms(shards[j].Dur))
			}
		}
		out = append(out, longest)
	}
	return out
}
