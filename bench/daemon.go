package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"time"

	"zen2ee/internal/core"
	"zen2ee/internal/obs"
	"zen2ee/internal/report"
	"zen2ee/internal/service"
	"zen2ee/internal/sim"
)

// The daemon-mixed experiment sets: cheap hits, CPU-heavy cold jobs, and
// sweeps sharing shards with earlier cold jobs.
var (
	hitIDs      = []string{"fig3", "tab1", "fig8"}
	coldIDs     = []string{"sec5a", "fig4", "fig7"}
	mixSweepIDs = []string{"fig4", "fig7"}
)

var daemonMixedWorkload = &workload{
	name: "daemon-mixed",
	why: "two closed-loop clients on a shard-caching daemon: 80% cache hits " +
		"share two cores with cold jobs and sweeps; HTTP, the caches and the store on the path",
	run: daemonMixed,
	sampledKeys: func(seed uint64, size sizing, n int) []string {
		var keys []string
		for c := 0; c < workers; c++ {
			p := newPlanner(seed, size, c)
			for i := 0; i < n; i++ {
				if r := p.next(); sampledPos(i) {
					keys = append(keys, r.key())
				}
			}
		}
		return keys
	},
}

// request is one daemon submission.
type request struct {
	class   string // "hit", "cold" or "sweep"
	ids     []string
	configs []core.Config // one for a job, several for a sweep
}

func (r request) key() string {
	if r.class == "sweep" {
		return sweepKey(r.ids, r.configs)
	}
	return runKey(r.ids, r.configs[0])
}

// submission is the request's API path and JSON body.
func (r request) submission() (string, any) {
	if r.class == "sweep" {
		return "/v1/sweeps", map[string]any{"ids": r.ids, "configs": r.configs}
	}
	return "/v1/jobs", map[string]any{"ids": r.ids, "scale": r.configs[0].Scale, "seed": r.configs[0].Seed}
}

func hitConfig(seed uint64, size sizing, h int) core.Config {
	return core.Config{Scale: size.scale, Seed: deriveSeed(seed, "daemon-mixed/hit", h)}
}

// deck is one block of a client's stream, shuffled per block: an exact
// 80/16/4 hit/cold/sweep mix however long the run, so runs of different
// seeds differ in request order and seeds, not in proportions.
var deck = func() []string {
	d := make([]string, 0, 25)
	for i := 0; i < 20; i++ {
		d = append(d, "hit")
	}
	return append(d, "cold", "cold", "cold", "cold", "sweep")
}()

// planner generates one client's request stream from the run seed.
type planner struct {
	seed   uint64
	size   sizing
	stream string
	rng    *sim.RNG
	block  []string
	n      int
	colds  []uint64 // this client's cold seeds so far
}

func newPlanner(seed uint64, size sizing, client int) *planner {
	stream := fmt.Sprintf("daemon-mixed/%d", client)
	return &planner{seed: seed, size: size, stream: stream, rng: sim.NewRNG(sim.DeriveSeed(seed, stream))}
}

func (p *planner) next() request {
	if len(p.block) == 0 {
		p.block = append([]string(nil), deck...)
		for i := len(p.block) - 1; i > 0; i-- {
			j := p.rng.Intn(i + 1)
			p.block[i], p.block[j] = p.block[j], p.block[i]
		}
	}
	class := p.block[0]
	p.block = p.block[1:]
	i := p.n
	p.n++
	switch class {
	case "hit":
		return request{class, hitIDs, []core.Config{hitConfig(p.seed, p.size, p.rng.Intn(p.size.hitSpecs))}}
	case "cold":
		c := core.Config{Scale: p.size.scale, Seed: deriveSeed(p.seed, p.stream+"/cold", i)}
		p.colds = append(p.colds, c.Seed)
		return request{class, coldIDs, []core.Config{c}}
	}
	// Two configurations reuse this client's last two cold seeds: their
	// shards are cached, their configuration documents are not. The
	// client's earlier requests have all completed, so the shards are there.
	configs := make([]core.Config, 0, 4)
	for _, s := range p.colds[max(0, len(p.colds)-2):] {
		configs = append(configs, core.Config{Scale: p.size.scale, Seed: s})
	}
	for j := 0; len(configs) < 4; j++ {
		configs = append(configs, core.Config{Scale: p.size.scale, Seed: deriveSeed(p.seed, p.stream+"/sweep", 4*i+j)})
	}
	return request{class, mixSweepIDs, configs}
}

// daemon is a zen2eed server behind a loopback listener and the HTTP
// client that drives it.
type daemon struct {
	b      *bench
	srv    *service.Server
	ts     *httptest.Server
	client *http.Client
}

// startDaemon starts the daemon as `zen2eed -executors 2 -shard-cache
// -cache 4096` runs it.
func (b *bench) startDaemon() *daemon {
	srv := service.New(service.Config{Executors: workers, ShardCache: true, Store: b.newStore()})
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.Proxy = nil
	tr.MaxIdleConnsPerHost = workers
	// No request of the mix takes more than a second; the timeout only
	// keeps a wedged daemon from hanging the run.
	client := &http.Client{Transport: tr, Timeout: time.Minute}
	return &daemon{b: b, srv: srv, ts: httptest.NewServer(srv), client: client}
}

func (d *daemon) close() {
	d.client.CloseIdleConnections()
	d.ts.Close()
	d.srv.Close()
}

// daemonMixed drives the daemon with two closed-loop clients until the
// run's time is up, pausing them about once a second for a pace sample.
func daemonMixed(b *bench) error {
	var d *daemon
	defer func() {
		if d != nil {
			d.close()
		}
	}()
	for i := 0; i < b.size.setups; i++ {
		// A set-up starts a fresh daemon over an empty store and computes
		// the hit specs into it.
		if err := b.setup(func() error {
			if d != nil {
				d.close()
			}
			d = b.startDaemon()
			for h := 0; h < b.size.hitSpecs; h++ {
				r := request{"hit", hitIDs, []core.Config{hitConfig(b.seed, b.size, h)}}
				doc, err := d.do(r, 0)
				if err != nil {
					return err
				}
				b.doc(r.key(), doc, false)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	b.startMeasure()
	var before map[string]float64
	if b.recording() {
		var err error
		if before, err = d.scrape(); err != nil {
			return err
		}
	}
	// Clients hold gate for reading while a request is in flight; the pacer
	// takes it about once a second, once both clients' requests are done,
	// to close the window and take a pace sample.
	var gate sync.RWMutex
	deadline := b.started.Add(b.seconds)
	stop, paced := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(paced)
		tick := time.NewTicker(paceEvery)
		defer tick.Stop()
		last := time.Now()
		for done := false; !done; {
			select {
			case <-tick.C:
			case <-stop:
				done = true
			}
			gate.Lock()
			b.window(time.Since(last))
			b.pace()
			last = time.Now()
			gate.Unlock()
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := newPlanner(b.seed, b.size, c)
			for i := 0; time.Now().Before(deadline); i++ {
				r := p.next()
				gate.RLock()
				t := time.Now()
				doc, err := d.do(r, c)
				b.addOp(r.class, time.Since(t), err != nil)
				gate.RUnlock()
				if err != nil {
					b.logf("client %d request %d (%s): %v", c, i, r.class, err)
					continue
				}
				b.doc(r.key(), doc, sampledPos(i))
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	<-paced
	for _, op := range b.ops {
		if !op.failed {
			b.units++
		}
	}
	if b.recording() {
		after, err := d.scrape()
		if err != nil {
			return err
		}
		for name, v := range after {
			b.count(name, v-before[name])
		}
	}
	b.latencyDetail("hit_ms.p50", "hit", 0.5)
	b.latencyDetail("hit_ms.p99", "hit", 0.99)
	b.latencyDetail("cold_ms.p50", "cold", 0.5)
	b.latencyDetail("cold_ms.p95", "cold", 0.95)
	b.latencyDetail("sweep_ms.p50", "sweep", 0.5)
	b.detail["jobs_per_s"] = Metric{Value: float64(b.units) / b.wall.Seconds(), N: b.units}
	return nil
}

// do runs one request as a client would: submit, wait on the event stream
// unless the job is already done, fetch the result document.
func (d *daemon) do(r request, client int) ([]byte, error) {
	path, spec := r.submission()
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	submitted := time.Now()
	resp, err := d.client.Post(d.ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	b, err := readOK(resp, http.StatusOK, http.StatusAccepted)
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.Unmarshal(b, &st); err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	d.httpSpan("http.submit", st.ID, client, submitted)
	base := d.ts.URL + "/v1/jobs/" + st.ID
	executed := st.State != string(service.StateDone)
	if executed {
		start := time.Now()
		if _, err := d.get(base + "/events"); err != nil {
			return nil, fmt.Errorf("events: %w", err)
		}
		d.httpSpan("http.events", st.ID, client, start)
	}
	start := time.Now()
	doc, err := d.get(base + "/result")
	if err != nil {
		return nil, fmt.Errorf("result: %w", err)
	}
	d.httpSpan("http.result", st.ID, client, start)
	if executed && d.b.recording() {
		d.b.sample("report.doc_kb", float64(len(doc))/1024)
		if err := d.probe(base, submitted); err != nil {
			return nil, err
		}
	}
	return doc, nil
}

func (d *daemon) httpSpan(cat, jobID string, client int, start time.Time) {
	sp := newSpan(cat, jobID)
	sp.Worker = client
	d.b.span(sp, start)
}

func (d *daemon) get(url string) ([]byte, error) {
	resp, err := d.client.Get(url)
	if err != nil {
		return nil, err
	}
	return readOK(resp, http.StatusOK)
}

// readOK reads and closes a response body, failing on an unexpected status.
func readOK(resp *http.Response, want ...int) ([]byte, error) {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	for _, w := range want {
		if resp.StatusCode == w {
			return b, nil
		}
	}
	return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
}

// probe reads an executed job's latency breakdown and execution trace
// from the daemon, the per-layer view the daemon exports about itself.
func (d *daemon) probe(base string, submitted time.Time) error {
	b := d.b
	start := time.Now()
	defer func() {
		b.mu.Lock()
		b.probe += time.Since(start)
		b.mu.Unlock()
	}()
	raw, err := d.get(base)
	if err != nil {
		return fmt.Errorf("status: %w", err)
	}
	var st struct {
		Latency *service.Latency `json:"latency"`
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("status: %w", err)
	}
	var queue time.Duration
	if l := st.Latency; l != nil {
		b.sample("service.queue_ms", l.QueueSeconds*1e3)
		b.sample("service.run_ms", l.RunSeconds*1e3)
		b.sample("service.marshal_ms", l.MarshalSeconds*1e3)
		queue = time.Duration(l.QueueSeconds * 1e9)
	}
	raw, err = d.get(base + "/trace")
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	doc, err := report.UnmarshalTrace(raw)
	if err != nil {
		return err
	}
	// The job's trace epoch is its start: submission plus queue wait.
	b.importJobTrace(doc, b.tr.Offset(submitted)+queue)
	return nil
}

// importJobTrace adds a daemon job's spans to the run's trace, shifted onto
// its timeline, and samples the job's longest executed shard.
func (b *bench) importJobTrace(doc *report.TraceDoc, shift time.Duration) {
	longest := 0.0
	for _, ev := range doc.CompleteEvents() {
		sp := obs.Span{
			Cat: ev.Cat, Name: ev.Name, Config: -1, Worker: -1,
			Start: shift + time.Duration(ev.TS*1e3), Dur: time.Duration(ev.Dur * 1e3),
		}
		if v, ok := ev.Args["config"].(float64); ok {
			sp.Config = int(v)
		}
		if v, ok := ev.Args["shard"].(float64); ok {
			sp.Shard = int(v)
		}
		if v, ok := ev.Args["queue_wait_us"].(float64); ok {
			sp.Wait = time.Duration(v * 1e3)
		}
		sp.Label, _ = ev.Args["label"].(string)
		sp.Origin, _ = ev.Args["worker"].(string)
		if sp.Label != "" {
			sp.Name = strings.TrimSuffix(sp.Name, "/"+sp.Label)
		}
		if ev.TID > 0 && sp.Origin == "" {
			sp.Worker = ev.TID - 1
		}
		b.tr.Add(sp)
		if sp.Cat == obs.CatShard && sp.Origin == "" {
			longest = max(longest, ms(sp.Dur))
		}
	}
	b.sample("core.longest_shard_ms", longest)
}

// scrapeSeries maps the daemon's /metrics counters onto layer counters.
var scrapeSeries = map[string]string{
	"zen2eed_cache_hits_total":         "service.cache_hits",
	"zen2eed_cache_misses_total":       "service.cache_misses",
	"zen2eed_shard_cache_hits_total":   "shardcache.hits",
	"zen2eed_shard_cache_misses_total": "shardcache.misses",
}

// scrape reads the daemon's cache counters from /metrics.
func (d *daemon) scrape() (map[string]float64, error) {
	raw, err := d.get(d.ts.URL + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		if name, ok := scrapeSeries[f[0]]; ok {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return nil, fmt.Errorf("metrics: %s: %w", f[0], err)
			}
			out[name] = v
		}
	}
	if len(out) != len(scrapeSeries) {
		return nil, fmt.Errorf("metrics: found %d of %d cache series", len(out), len(scrapeSeries))
	}
	return out, nil
}
