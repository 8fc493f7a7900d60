package core

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestComparisonJSONRoundTrip(t *testing.T) {
	cases := []Comparison{
		{Name: "freq", Unit: "GHz", Paper: 2.5, Measured: 2.49, RelTol: 0.05},
		{Name: "idle", Unit: "W", Paper: 0, Measured: 0.2, AbsTol: 0.5},
		{Name: "off", Paper: 0, Measured: 1.7, AbsTol: 0.5}, // deviates, Inf ratio
	}
	for _, c := range cases {
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("%s: marshal: %v", c.Name, err)
		}
		var got Comparison
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("%s: unmarshal: %v", c.Name, err)
		}
		if !reflect.DeepEqual(c, got) {
			t.Errorf("%s: round trip changed the comparison:\nin  %+v\nout %+v", c.Name, c, got)
		}
	}
}

func TestComparisonJSONCarriesVerdicts(t *testing.T) {
	// The zero-paper-value case renders ±Inf as a relative deviation; the
	// wire form must stay encodable and still carry the verdict.
	b, err := json.Marshal(Comparison{Name: "x", Unit: "W", Paper: 0, Measured: 3, AbsTol: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	for _, want := range []string{`"ok":false`, `"deviation":`} {
		if !strings.Contains(s, want) {
			t.Errorf("wire form %s missing %s", s, want)
		}
	}
	if strings.Contains(s, "Inf") {
		t.Errorf("wire form leaked an Inf: %s", s)
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	r, err := RunOne("fig1", Options{Scale: 0.2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var got Result
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*r, got) {
		t.Fatalf("round trip changed the result:\nin  %+v\nout %+v", *r, got)
	}
}

func TestEveryExperimentResultIsJSONEncodable(t *testing.T) {
	// encoding/json rejects NaN and ±Inf; no experiment may emit them in
	// its stored metrics, series, or comparisons.
	if testing.Short() {
		t.Skip("runs the full suite")
	}
	results, err := RunIDsConfig(nil, Options{Scale: 0.1, Seed: 1}, RunConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if _, err := json.Marshal(r); err != nil {
			t.Errorf("%s: result not JSON-encodable: %v", r.ID, err)
		}
	}
}
