package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// fakeExp builds a cheap synthetic experiment for scheduler tests, so they
// do not depend on (or pollute) the global registry.
func fakeExp(id string, run func(Options) (*Result, error)) Experiment {
	return whole(Experiment{ID: id, Title: "fake " + id, PaperRef: "test"}, run)
}

func okExp(id string) Experiment {
	return fakeExp(id, func(o Options) (*Result, error) {
		r := newResult(id, "fake "+id, "test")
		r.Metrics["seed"] = float64(o.Seed)
		return r, nil
	})
}

func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite twice")
	}
	o := Options{Scale: 0.1, Seed: 1}
	var serial []*Result
	for _, e := range Registry() {
		r, err := serialRun(e, o.perExperiment(e.ID))
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		serial = append(serial, r)
	}
	parallel, err := RunIDsConfig(nil, o, RunConfig{Workers: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("serial %d results, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		a, b := serial[i], parallel[i]
		if a.ID != b.ID {
			t.Fatalf("order differs at %d: %s vs %s (want paper order)", i, a.ID, b.ID)
		}
		if !reflect.DeepEqual(a.Metrics, b.Metrics) {
			t.Errorf("%s: metrics differ:\nserial   %v\nparallel %v", a.ID, a.Metrics, b.Metrics)
		}
		if !reflect.DeepEqual(a.Series, b.Series) {
			t.Errorf("%s: raw series differ", a.ID)
		}
		if !reflect.DeepEqual(a.Rows, b.Rows) {
			t.Errorf("%s: table rows differ", a.ID)
		}
		if a.Table() != b.Table() {
			t.Errorf("%s: rendered tables differ", a.ID)
		}
	}
}

func TestRunOneMatchesSuiteSection(t *testing.T) {
	// A lone rerun of one experiment must reproduce its section of the
	// full suite — same derived seed, same numbers.
	o := Options{Scale: 0.1, Seed: 5}
	suite, err := RunIDsConfig(nil, o, RunConfig{Workers: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	one, err := RunOne("fig3", o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range suite {
		if r.ID != "fig3" {
			continue
		}
		if !reflect.DeepEqual(r.Metrics, one.Metrics) {
			t.Fatalf("RunOne metrics differ from suite section:\nsuite  %v\nalone  %v", r.Metrics, one.Metrics)
		}
		if one.Elapsed <= 0 {
			t.Fatal("RunOne did not record wall time")
		}
		return
	}
	t.Fatal("fig3 missing from suite results")
}

func TestResolveIDsCanonicalizes(t *testing.T) {
	// Request order must not matter: the resolved set is in paper order
	// (the property cache keys rely on).
	a, err := ResolveIDs([]string{"fig3", "fig1", "sec5a"})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range a {
		got = append(got, e.ID)
	}
	if want := []string{"fig1", "sec5a", "fig3"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("resolved %v, want %v", got, want)
	}
	all, err := ResolveIDs(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(Registry()) {
		t.Fatalf("empty request resolved %d experiments, want the full registry (%d)", len(all), len(Registry()))
	}
}

func TestResolveIDsUnknown(t *testing.T) {
	if _, err := ResolveIDs([]string{"fig1", "nonexistent"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestResolveIDsRejectsDuplicates(t *testing.T) {
	// A repeated ID is a caller bug, not a request to collapse: the
	// response would silently have fewer sections than the request.
	_, err := ResolveIDs([]string{"fig3", "fig1", "fig3"})
	if err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("duplicate experiment IDs accepted (err %v)", err)
	}
}

func TestRunIDsMatchesSuiteSections(t *testing.T) {
	// A job over a subset must reproduce exactly those sections of a full
	// run: same derived seeds, same numbers, paper order.
	o := Options{Scale: 0.1, Seed: 7}
	subset, err := RunIDsConfig([]string{"fig3", "fig1"}, o, RunConfig{Workers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(subset) != 2 || subset[0].ID != "fig1" || subset[1].ID != "fig3" {
		t.Fatalf("subset results wrong: %v", subset)
	}
	for _, r := range subset {
		alone, err := RunOne(r.ID, o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r.Metrics, alone.Metrics) {
			t.Errorf("%s: RunIDsConfig metrics differ from RunOne:\njob   %v\nalone %v", r.ID, r.Metrics, alone.Metrics)
		}
	}
}

func TestRunOneUnknownID(t *testing.T) {
	if _, err := RunOne("nonexistent", DefaultOptions()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestPerExperimentSeedsAreIndependent(t *testing.T) {
	o := Options{Scale: 1, Seed: 1}
	seen := map[uint64]string{}
	for _, e := range Registry() {
		s := o.perExperiment(e.ID).Seed
		if s == o.Seed {
			t.Errorf("%s: derived seed equals the run seed", e.ID)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("%s and %s derived the same seed %d", prev, e.ID, s)
		}
		seen[s] = e.ID
	}
}

func TestParallelPartialFailure(t *testing.T) {
	exps := []Experiment{
		okExp("a"), okExp("b"),
		fakeExp("boom", func(Options) (*Result, error) {
			return nil, errors.New("synthetic failure")
		}),
		okExp("c"), okExp("d"),
	}
	results, err := runSet(exps, DefaultOptions(), RunConfig{Workers: 4}, nil)
	if err == nil {
		t.Fatal("failure was swallowed")
	}
	if !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "synthetic failure") {
		t.Fatalf("error does not identify the failing experiment: %v", err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d partial results, want 4", len(results))
	}
	for i, want := range []string{"a", "b", "c", "d"} {
		if results[i].ID != want {
			t.Fatalf("results[%d] = %s, want %s (input order, failure dropped)", i, results[i].ID, want)
		}
	}
}

func TestParallelPanicBecomesError(t *testing.T) {
	exps := []Experiment{
		okExp("a"),
		fakeExp("crash", func(Options) (*Result, error) { panic("kaboom") }),
	}
	results, err := runSet(exps, DefaultOptions(), RunConfig{Workers: 2}, nil)
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("panic not converted to error: %v", err)
	}
	if len(results) != 1 || results[0].ID != "a" {
		t.Fatalf("surviving results wrong: %v", results)
	}
}

func TestParallelProgressEvents(t *testing.T) {
	var exps []Experiment
	for i := 0; i < 7; i++ {
		exps = append(exps, okExp(fmt.Sprintf("e%d", i)))
	}
	var mu sync.Mutex
	var events []Progress
	if _, err := runSet(exps, DefaultOptions(), RunConfig{Workers: 3}, func(p Progress) {
		mu.Lock()
		events = append(events, p)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	if len(events) != len(exps) {
		t.Fatalf("%d progress events for %d experiments", len(events), len(exps))
	}
	seen := map[string]bool{}
	for i, p := range events {
		if p.Done != i+1 || p.Total != len(exps) {
			t.Errorf("event %d: Done %d / Total %d", i, p.Done, p.Total)
		}
		if p.Err != nil {
			t.Errorf("event %d: unexpected error %v", i, p.Err)
		}
		if seen[p.ID] {
			t.Errorf("duplicate event for %s", p.ID)
		}
		seen[p.ID] = true
	}
}

func TestParallelWorkerClamping(t *testing.T) {
	exps := []Experiment{okExp("a"), okExp("b")}
	for _, workers := range []int{0, -3, 1, 2, 100} {
		results, err := runSet(exps, DefaultOptions(), RunConfig{Workers: workers}, nil)
		if err != nil || len(results) != 2 {
			t.Fatalf("workers=%d: %d results, err %v", workers, len(results), err)
		}
	}
}

func TestParallelResultsCarryWallTime(t *testing.T) {
	results, err := runSet([]Experiment{okExp("a")}, DefaultOptions(), RunConfig{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Elapsed <= 0 {
		t.Fatalf("Elapsed not recorded: %v", results[0].Elapsed)
	}
}
