package report

import (
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"zen2ee/internal/core"
)

func sampleResult(t *testing.T) *core.Result {
	t.Helper()
	r, err := core.RunOne("sec6acpi", core.Options{Scale: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestWriteCSV(t *testing.T) {
	r := sampleResult(t)
	var b strings.Builder
	if err := WriteCSV(&b, r); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"# sec6acpi,", "state,entry", "C0,active", "# metric,c2_latency_us,400"} {
		if !strings.Contains(out, want) {
			t.Errorf("CSV missing %q:\n%s", want, out)
		}
	}
}

// failAfter accepts n bytes, then fails every write, as a full disk would.
type failAfter struct{ n int }

var errDiskFull = errors.New("no space left on device")

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		k := f.n
		f.n = 0
		return k, errDiskFull
	}
	f.n -= len(p)
	return len(p), nil
}

// TestWritersReturnWriteErrors: a write that fails anywhere in the
// document, not only on the first line, must reach the caller, which
// would otherwise rename a truncated file into place.
func TestWritersReturnWriteErrors(t *testing.T) {
	r := sampleResult(t)
	writers := map[string]func(io.Writer) error{
		"csv": func(w io.Writer) error { return WriteCSV(w, r) },
		"markdown": func(w io.Writer) error {
			_, err := WriteMarkdown(w, []*core.Result{r}, core.DefaultOptions())
			return err
		},
	}
	for name, write := range writers {
		var full strings.Builder
		if err := write(&full); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		size := full.Len()
		for _, n := range []int{0, 40, size / 2, size - 1} {
			if err := write(&failAfter{n: n}); !errors.Is(err, errDiskFull) {
				t.Errorf("%s failing after %d of %d bytes: got %v, want the write error", name, n, size, err)
			}
		}
	}
}

func TestCSVEscaping(t *testing.T) {
	if got := escapeCSV(`plain`); got != "plain" {
		t.Fatalf("plain escaped: %q", got)
	}
	if got := escapeCSV(`a,b`); got != `"a,b"` {
		t.Fatalf("comma: %q", got)
	}
	if got := escapeCSV(`say "hi"`); got != `"say ""hi"""` {
		t.Fatalf("quotes: %q", got)
	}
}

func TestWriteMarkdown(t *testing.T) {
	r := sampleResult(t)
	var b strings.Builder
	sum, err := WriteMarkdown(&b, []*core.Result{r}, core.Options{Scale: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# EXPERIMENTS — paper vs measured",
		"## sec6acpi —",
		"| quantity | paper | measured |",
		"go test -bench BenchmarkSec6ACPITable",
		"checks within tolerance",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
	if sum.Total == 0 || sum.OK != sum.Total {
		t.Fatalf("summary %+v", sum)
	}
}

func TestMarkdownIndexAndWallTime(t *testing.T) {
	r := sampleResult(t)
	r.Elapsed = 12345 * time.Microsecond
	var b strings.Builder
	if _, err := WriteMarkdown(&b, []*core.Result{r}, core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"| experiment | paper ref | checks ok | wall time |",
		"| [sec6acpi](#sec6acpi) |",
		`<a id="sec6acpi"></a>`,
		"12.3ms",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
	// A result that never went through the scheduler has no timing.
	r.Elapsed = 0
	b.Reset()
	if _, err := WriteMarkdown(&b, []*core.Result{r}, core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "| – |") {
		t.Error("zero wall time should render as –")
	}
}

func TestMarkdownZeroPaperComparison(t *testing.T) {
	r := sampleResult(t)
	r.Comparisons = append(r.Comparisons, core.Comparison{
		Name: "zero-paper", Unit: "W", Paper: 0, Measured: 0.5, AbsTol: 1,
	})
	var b strings.Builder
	if _, err := WriteMarkdown(&b, []*core.Result{r}, core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "Inf") {
		t.Fatal("markdown renders an infinite deviation")
	}
}

func TestMarkdownMarksDeviations(t *testing.T) {
	r := sampleResult(t)
	// Inject a deviating comparison.
	r.Comparisons = append(r.Comparisons, core.Comparison{
		Name: "synthetic", Paper: 100, Measured: 200, RelTol: 0.1,
	})
	var b strings.Builder
	sum, err := WriteMarkdown(&b, []*core.Result{r}, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "**deviates**") {
		t.Fatal("deviation not marked")
	}
	if sum.OK == sum.Total {
		t.Fatal("summary did not count the deviation")
	}
}
