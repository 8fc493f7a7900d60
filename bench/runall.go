package main

import (
	"time"

	"zen2ee/internal/core"
	"zen2ee/internal/obs"
	"zen2ee/internal/report"
)

var runAllWorkload = &workload{
	name: "run-all",
	why: "`zen2ee run all -json`, the headline number: simulation-bound, its tail set by fig9's " +
		"monolithic shard; caches, dispatch and HTTP do no work",
	run: runAll,
	sampledKeys: func(seed uint64, size sizing, _ int) []string {
		return []string{runKey(nil, runAllConfig(seed, size))}
	},
}

func runAllConfig(seed uint64, size sizing) core.Config {
	return core.Config{Scale: size.scale, Seed: seed}
}

// runAll repeats full-suite runs of one configuration, each marshaled
// exactly as `zen2ee run all -json` does and followed by a pace sample.
// Every run must produce the same document; the first measured one is
// checked against the reference.
func runAll(b *bench) error {
	cfg := runAllConfig(b.seed, b.size)
	key := runKey(nil, cfg)
	for i := 0; i < b.size.setups; i++ {
		// A set-up is one discarded run: it pays first-run costs (heap
		// growth, page faults) outside the measurement.
		if err := b.setup(func() error {
			doc, _, _, err := b.runSuite(cfg)
			if err == nil {
				b.doc(key, doc, false)
			}
			return err
		}); err != nil {
			return err
		}
	}
	b.startMeasure()
	checks := -1
	for i := 0; b.more(); i++ {
		end := b.begin("run", i)
		doc, shards, results, err := b.runSuite(cfg)
		end(err != nil)
		if err != nil {
			b.logf("run %d: %v", i, err)
			continue
		}
		b.units += shards
		b.doc(key, doc, i == 0)
		if checks < 0 {
			checks = paperChecksOK(results)
		}
	}
	b.latencyDetail("run_all_s.p50", "run", 0.5)
	b.latencyDetail("run_all_s.p75", "run", 0.75)
	b.detail["shards_per_s"] = Metric{Value: float64(b.units) / b.wall.Seconds(), N: b.units}
	b.detail["paper_checks_ok"] = Metric{Value: float64(max(checks, 0)), N: 1}
	return nil
}

// runSuite is one full-suite run and its canonical document, returning the
// shard count the scheduler executed.
func (b *bench) runSuite(cfg core.Config) (doc []byte, shards int, results []*core.Result, err error) {
	name := b.currentOp()
	start := time.Now()
	results, err = core.RunIDsConfig(nil, cfg, core.RunConfig{Workers: workers, Trace: b.trace()},
		func(p core.Progress) {
			if p.ExperimentDone() {
				shards += p.Shards
			}
		})
	b.span(newSpan("core.run", name), start)
	if err != nil {
		return nil, 0, nil, err
	}
	doc, err = b.marshal(results, cfg)
	return doc, shards, results, err
}

// marshal renders one configuration's canonical document.
func (b *bench) marshal(results []*core.Result, cfg core.Config) ([]byte, error) {
	start := time.Now()
	doc, err := report.MarshalResults(results, cfg)
	b.span(newSpan(obs.CatMarshal, b.currentOp()), start)
	if b.recording() {
		b.sample("report.doc_kb", float64(len(doc))/1024)
	}
	return doc, err
}

// paperChecksOK counts the paper comparisons a result set reproduces
// within tolerance.
func paperChecksOK(results []*core.Result) int {
	n := 0
	for _, r := range results {
		for _, c := range r.Comparisons {
			if c.OK() {
				n++
			}
		}
	}
	return n
}
