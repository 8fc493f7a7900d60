// Package report renders experiment results into the repository's
// documentation formats: the EXPERIMENTS.md paper-vs-measured report and
// CSV exports. The cmd/zen2ee CLI is a thin wrapper around this package.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"zen2ee/internal/core"
)

// errWriter passes writes through to w until one fails, then records that
// error and drops every later write, so a writer that prints line by line
// checks once, at the end.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, err
}

// WriteCSV emits a result's table and metrics in CSV form. It returns the
// first write error.
func WriteCSV(out io.Writer, r *core.Result) error {
	w := &errWriter{w: out}
	fmt.Fprintf(w, "# %s,%s\n", r.ID, escapeCSV(r.Title))
	fmt.Fprintln(w, strings.Join(escapeAll(r.Columns), ","))
	for _, row := range r.Rows {
		fmt.Fprintln(w, strings.Join(escapeAll(row), ","))
	}
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "# metric,%s,%g\n", k, r.Metrics[k])
	}
	return w.err
}

func escapeAll(cells []string) []string {
	out := make([]string, len(cells))
	for i, c := range cells {
		out[i] = escapeCSV(c)
	}
	return out
}

func escapeCSV(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// Summary aggregates the comparison outcome of a result set.
type Summary struct {
	Total, OK int
}

// WriteMarkdown emits the EXPERIMENTS.md document for a result set. It
// returns the first write error.
func WriteMarkdown(out io.Writer, results []*core.Result, opts core.Options) (Summary, error) {
	var s Summary
	w := &errWriter{w: out}
	fmt.Fprintln(w, "# EXPERIMENTS — paper vs measured")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Generated by `zen2ee gen-experiments` against the simulated dual")
	fmt.Fprintln(w, "EPYC 7502 system (see DESIGN.md for the hardware substitution).")
	fmt.Fprintf(w, "Options: scale %g, seed %d. Re-run with higher `-scale` for the\n", opts.Scale, opts.Seed)
	fmt.Fprintln(w, "paper's full sample counts.")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| experiment | paper ref | checks ok | wall time |")
	fmt.Fprintln(w, "|---|---|---|---|")
	for _, r := range results {
		ok, total := 0, 0
		for _, c := range r.Comparisons {
			total++
			if c.OK() {
				ok++
			}
		}
		fmt.Fprintf(w, "| [%s](#%s) | %s | %d/%d | %s |\n",
			r.ID, r.ID, r.PaperRef, ok, total, wallTime(r.Elapsed))
	}
	fmt.Fprintln(w)
	for _, r := range results {
		// The explicit anchor keeps the index-table links stable: GitHub
		// would otherwise slug the anchor from the whole heading text.
		fmt.Fprintf(w, "<a id=\"%s\"></a>\n\n", r.ID)
		fmt.Fprintf(w, "## %s — %s (%s)\n\n", r.ID, r.Title, r.PaperRef)
		if e, err := core.ByID(r.ID); err == nil && e.Bench != "" {
			fmt.Fprintf(w, "Regenerated by `go test -bench %s` or `zen2ee run %s`.\n\n", e.Bench, r.ID)
		}
		if len(r.Comparisons) > 0 {
			fmt.Fprintln(w, "| quantity | paper | measured | deviation | status |")
			fmt.Fprintln(w, "|---|---|---|---|---|")
			for _, c := range r.Comparisons {
				s.Total++
				status := "ok"
				if c.OK() {
					s.OK++
				} else {
					status = "**deviates**"
				}
				fmt.Fprintf(w, "| %s | %.4g %s | %.4g %s | %s | %s |\n",
					c.Name, c.Paper, c.Unit, c.Measured, c.Unit, c.DeviationCell(), status)
			}
			fmt.Fprintln(w)
		}
		for _, n := range r.Notes {
			fmt.Fprintf(w, "> %s\n", n)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "**Summary: %d/%d paper-vs-measured checks within tolerance.**\n", s.OK, s.Total)
	return s, w.err
}

// wallTime formats an experiment's wall-clock time for the index table.
// Results not produced by the suite schedulers carry no timing.
func wallTime(d time.Duration) string {
	if d == 0 {
		return "–"
	}
	if d < 100*time.Microsecond {
		return "<100µs"
	}
	return d.Round(100 * time.Microsecond).String()
}
