package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"zen2ee/internal/obs"
	"zen2ee/internal/report"
)

// workers is the fixed concurrency of every layer: scheduler workers,
// daemon executors and daemon clients. The benchmark host has two CPUs, so
// the load a run puts on it never exceeds them.
const workers = 2

// sizing fixes how much work the workloads do per operation. Runs use
// fullSize; the smoke test shrinks it through tinySize.
type sizing struct {
	// scale is the experiment scale of every configuration.
	scale float64
	// hitSpecs is how many specs daemon-mixed pre-warms for its hits.
	hitSpecs int
	// setups is how many times a run sets its workload up; setup_s is the
	// median.
	setups int
	// simEvents and advances size the engine and machine microbenchmarks;
	// paceEvents the pace kernel.
	simEvents, advances, paceEvents int
}

var fullSize = sizing{
	scale: 1, hitSpecs: 8, setups: 3,
	simEvents: 1_000_000, advances: 2000, paceEvents: 100_000,
}

// traceLimitBytes bounds a traced run's span buffer. It is far above what
// the longest run records, so no span is dropped.
const traceLimitBytes = 256 << 20

// workload is one traffic shape of the benchmark.
type workload struct {
	name string
	// why says what the workload stresses that the others do not.
	why string
	// run sets the workload up, measures it until the run's time is up,
	// and records operations, documents and layer samples on b.
	run func(b *bench) error
	// sampledKeys lists the documents at the sampled stream positions below
	// n for a seed: the ones checked against a reference.
	sampledKeys func(seed uint64, size sizing, n int) []string
}

var workloads = []*workload{runAllWorkload, daemonMixedWorkload}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// opSample is one measured operation: a full-suite run or a daemon request.
type opSample struct {
	class  string
	dur    time.Duration
	failed bool
	pace   int // the pace sample taken next after it
}

// timed is a set-up or a stretch of measured time, with the pace sample
// taken next after it.
type timed struct {
	dur  time.Duration
	pace int
}

// bench is one run of one workload: its inputs, and what it has measured
// and produced so far.
type bench struct {
	seed    uint64
	seconds time.Duration
	size    sizing
	tr      *obs.Trace // nil in untraced runs
	logw    io.Writer

	pacer *pacer
	// measuring is set once set-up is over: traced runs record spans and
	// layer samples only from then on.
	measuring atomic.Bool
	started   time.Time // when the measured phase started
	// opName names the sequential operation in flight; spans recorded
	// inside it take it as their Name.
	opName atomic.Pointer[string]

	mu       sync.Mutex
	paces    []time.Duration // pace kernel times, in the order taken
	setups   []timed
	ops      []opSample
	docs     []producedDoc
	samples  map[string][]float64
	counters map[string]float64
	detail   map[string]Metric
	// windows are the measured time between pace samples, pauses for them
	// excluded; wall is their sum and units the shards or jobs completed
	// in it.
	windows []timed
	wall    time.Duration
	units   int
	// probe is time spent fetching trace data from the daemon.
	probe time.Duration
}

func newBench(seed uint64, seconds time.Duration, size sizing, traced bool, logw io.Writer) *bench {
	b := &bench{
		seed: seed, seconds: seconds, size: size, logw: logw, pacer: newPacer(size.paceEvents),
		samples: map[string][]float64{}, counters: map[string]float64{}, detail: map[string]Metric{},
	}
	if traced {
		b.tr = obs.New(traceLimitBytes)
	}
	return b
}

// startMeasure ends set-up and starts the measured phase.
func (b *bench) startMeasure() {
	b.started = time.Now()
	b.measuring.Store(true)
}

// pace takes one pace sample. Nothing else may run meanwhile.
func (b *bench) pace() {
	d := b.pacer.run()
	b.mu.Lock()
	b.paces = append(b.paces, d)
	b.mu.Unlock()
}

// window records d of measured time, ended by the pace sample taken next.
func (b *bench) window(d time.Duration) {
	b.mu.Lock()
	b.windows = append(b.windows, timed{d, len(b.paces)})
	b.wall += d
	b.mu.Unlock()
}

// adjusted scales d, measured just before pace sample i, to the reference
// host: by paceNominal over the median of pace samples i-1, i and i+1, so
// that one sample slowed by a passing stall does not skew it.
func (b *bench) adjusted(d time.Duration, i int) time.Duration {
	near := make([]float64, 0, 3)
	for _, p := range b.paces[max(0, i-1):min(len(b.paces), i+2)] {
		near = append(near, float64(p))
	}
	return time.Duration(float64(d) * float64(paceNominal) / median(near))
}

// recording reports whether spans and layer samples are being taken: in
// the measured phase of a traced run.
func (b *bench) recording() bool { return b.tr.Enabled() && b.measuring.Load() }

// trace is the trace to hand the program's own tracing seams: the run's
// trace while recording, nil otherwise.
func (b *bench) trace() *obs.Trace {
	if b.recording() {
		return b.tr
	}
	return nil
}

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.logw, "bench: "+format+"\n", args...)
}

// setup times one set-up of the workload and takes a pace sample after it.
func (b *bench) setup(fn func() error) error {
	start := time.Now()
	if err := fn(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	d := time.Since(start)
	b.mu.Lock()
	b.setups = append(b.setups, timed{d, len(b.paces)})
	b.mu.Unlock()
	b.pace()
	b.logf("set-up %d took %v", len(b.setups), d.Round(time.Millisecond))
	return nil
}

// begin starts a sequential operation and returns the function that ends
// it, recording its time and an op span and taking a pace sample.
func (b *bench) begin(class string, i int) (end func(failed bool)) {
	name := fmt.Sprintf("%s/%d", class, i)
	b.opName.Store(&name)
	start := time.Now()
	return func(failed bool) {
		d := time.Since(start)
		b.opName.Store(nil)
		b.addOp(class, d, failed)
		b.window(d)
		sp := newSpan("op", name)
		sp.Label = class
		b.span(sp, start)
		b.pace()
	}
}

// newSpan is a bench-side span outside any configuration or worker.
func newSpan(cat, name string) obs.Span {
	return obs.Span{Cat: cat, Name: name, Config: -1, Worker: -1}
}

// currentOp is the Name for spans recorded inside the operation in flight.
func (b *bench) currentOp() string {
	if p := b.opName.Load(); p != nil {
		return *p
	}
	return "-"
}

func (b *bench) addOp(class string, d time.Duration, failed bool) {
	b.mu.Lock()
	b.ops = append(b.ops, opSample{class: class, dur: d, failed: failed, pace: len(b.paces)})
	b.mu.Unlock()
}

// more reports whether a sequential workload has time left to measure.
func (b *bench) more() bool { return time.Since(b.started) < b.seconds }

// span records sp as running from start to now, when recording.
func (b *bench) span(sp obs.Span, start time.Time) {
	if !b.recording() {
		return
	}
	sp.Start, sp.Dur = b.tr.Offset(start), time.Since(start)
	b.tr.Add(sp)
}

// sample appends one observation of a layer quantity.
func (b *bench) sample(name string, v float64) {
	b.mu.Lock()
	b.samples[name] = append(b.samples[name], v)
	b.mu.Unlock()
}

func (b *bench) count(name string, v float64) {
	b.mu.Lock()
	b.counters[name] += v
	b.mu.Unlock()
}

// doc records one output document for the verify phase. sampled marks the
// documents checked against a reference; every other document must match
// the first one produced under its key.
func (b *bench) doc(key string, body []byte, sampled bool) {
	b.mu.Lock()
	b.docs = append(b.docs, producedDoc{key: key, digest: sha256.Sum256(body), sampled: sampled})
	b.mu.Unlock()
}

// Result is the outcome of one run of one workload.
type Result struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	// Attempted counts the run's operations and output documents; Failed
	// those that erred or whose bytes did not match their reference.
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Metrics are the end-to-end metrics of an untraced run and the
	// per-layer metrics of a traced one.
	Metrics map[string]Metric `json:"metrics"`
	// Detail holds an untraced run's workload-specific numbers.
	Detail map[string]Metric `json:"detail,omitempty"`
	// SelfMS is a traced run's self time per layer, and CapacityMS the
	// lane time available to them (lanes × measured wall).
	SelfMS     map[string]float64 `json:"self_ms,omitempty"`
	CapacityMS float64            `json:"capacity_ms,omitempty"`
}

// execute runs one workload once. A non-empty tracePath makes the run
// traced: it reports per-layer metrics and writes its spans there as a
// Chrome trace. Progress goes to logw.
func execute(w *workload, seed uint64, seconds time.Duration, tracePath string, size sizing, logw io.Writer) (*Result, error) {
	traced := tracePath != ""
	b := newBench(seed, seconds, size, traced, logw)
	var micro map[string]Metric
	if traced {
		micro = microbenchmarks(size)
	}
	fmt.Fprintf(logw, "bench: %s seed %d: measuring for %v (traced %t)\n", w.name, seed, seconds, traced)
	steal0, total0, stealOK := cpuTicks()
	if err := w.run(b); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	b.detail["peak_rss_mb"] = Metric{Value: peakRSSMB(), N: 1}
	if steal1, total1, ok := cpuTicks(); stealOK && ok && total1 > total0 {
		b.detail["host.steal_frac"] = Metric{Value: float64(steal1-steal0) / float64(total1-total0), N: int(total1 - total0)}
	}
	fmt.Fprintf(logw, "bench: %s: %d operations measured; verifying %d documents\n", w.name, len(b.ops), len(b.docs))
	attempted, failed, err := b.verify(logw)
	if err != nil {
		return nil, fmt.Errorf("%s: verify: %w", w.name, err)
	}
	for _, op := range b.ops {
		if op.failed {
			attempted++
			failed++
		}
	}
	res := &Result{
		Workload: w.name, Seed: seed, Seconds: seconds.Seconds(), Traced: traced,
		Attempted: attempted, Failed: failed,
	}
	paces := make([]float64, len(b.paces))
	for i, d := range b.paces {
		paces[i] = ms(d)
	}
	paceMS := Metric{Value: median(paces), N: len(paces)}
	if !traced {
		res.Metrics, err = fill(b.endToEnd(), endToEnd)
		if err != nil {
			return nil, err
		}
		b.detail["failed_frac"] = Metric{Value: float64(failed) / float64(max(attempted, 1)), N: attempted}
		b.detail["host.pace_ms"] = paceMS
		res.Detail = map[string]Metric{}
		for name, m := range b.detail {
			m.Unit = detailDefs[name].Unit
			res.Detail[name] = m
		}
		return res, nil
	}
	spans, dropped := b.tr.Snapshot()
	got, self, capacity := b.layerMetrics(spans)
	for name, m := range micro {
		got[name] = m
	}
	got["host.pace_ms"] = paceMS
	if res.Metrics, err = fill(got, perLayer); err != nil {
		return nil, err
	}
	res.SelfMS, res.CapacityMS = self, capacity
	if err := writeTrace(tracePath, spans, dropped); err != nil {
		return nil, err
	}
	return res, nil
}

// endToEnd computes the workload-independent end-to-end metrics, every time
// adjusted to the reference host.
func (b *bench) endToEnd() map[string]Metric {
	setups := make([]float64, len(b.setups))
	for i, s := range b.setups {
		setups[i] = b.adjusted(s.dur, s.pace).Seconds()
	}
	var lat []float64
	for _, op := range b.ops {
		if !op.failed {
			lat = append(lat, ms(b.adjusted(op.dur, op.pace)))
		}
	}
	var wall time.Duration
	for _, w := range b.windows {
		wall += b.adjusted(w.dur, w.pace)
	}
	out := map[string]Metric{
		"setup_s":        {Value: median(setups), N: len(setups)},
		"latency_ms.p50": {Value: percentile(lat, 0.5), N: len(lat)},
	}
	if wall > 0 {
		out["throughput_per_s"] = Metric{Value: float64(b.units) / wall.Seconds(), N: b.units}
	}
	return out
}

// latencies returns the durations in ms of the successful operations of a
// class ("" for all).
func (b *bench) latencies(class string) []float64 {
	var out []float64
	for _, op := range b.ops {
		if !op.failed && (class == "" || op.class == class) {
			out = append(out, ms(op.dur))
		}
	}
	return out
}

// latencyDetail reports the q-percentile of a class's latencies as a
// detail metric, in seconds when unit is "s" and milliseconds otherwise.
func (b *bench) latencyDetail(name, class string, q float64) {
	lat := b.latencies(class)
	v := percentile(lat, q)
	if detailDefs[name].Unit == "s" {
		v /= 1000
	}
	m := Metric{Value: v, N: len(lat)}
	if q > 0.5 {
		m.Beyond = beyond(len(lat), q)
	}
	b.detail[name] = m
}

func writeTrace(path string, spans []obs.Span, dropped int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := report.WriteChromeTrace(f, spans, dropped); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cpuTicks reads the host's stolen and total CPU time, in ticks, from the
// aggregate line of /proc/stat. Stolen time is time a hypervisor ran
// something else while this machine had work to run: on a shared host it
// is what slows a whole run down at once.
func cpuTicks() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user and nice.
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range f[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// peakRSSMB is the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
