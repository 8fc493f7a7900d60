// The streaming sweep encoder. A sweep document is a fixed header, one
// section per configuration in request order, and a fixed tail — so it can
// be emitted incrementally as a streaming sweep delivers configurations,
// which core.RunSweepStream does in request order. SweepWriter is that
// encoder: its concatenated output is byte-for-byte what
// MarshalSweepSections produces for the same (ids, configs, documents),
// a property pinned by golden tests rather than promised here. It is the
// piece that lets the CLI and the daemon serve arbitrarily large sweeps
// with memory proportional to the configurations in flight.

package report

import (
	"encoding/json"
	"fmt"
	"io"

	"zen2ee/internal/core"
)

// sweepTail closes the configs array and the document; the header is the
// empty-sweep document minus this suffix, so header+tail is itself the
// canonical zero-section document.
const sweepTail = "]\n}\n"

// SweepWriter emits a canonical sweep document section by section, in
// request order: each WriteSection emits the next configuration's section.
// Every configuration must be written exactly once before Close, which
// refuses to terminate an incomplete document — an interrupted stream
// therefore never yields bytes that parse as a complete sweep.
type SweepWriter struct {
	w       io.Writer
	configs []core.Config
	next    int   // request-order index of the next section
	err     error // sticky: first failure poisons the writer
	closed  bool
}

// NewSweepWriter starts a sweep document on w, writing the header
// immediately. ids and configs follow MarshalSweepSections semantics: ids
// is the canonical experiment set (nil for the full registry), configs the
// request-order configuration list.
func NewSweepWriter(w io.Writer, ids []string, configs []core.Config) (*SweepWriter, error) {
	buf := getMarshalBuf()
	defer marshalBufs.Put(buf)
	empty := JSONSweep{Schema: SweepSchemaVersion, IDs: ids, Configs: []SweepSection{}}
	if err := encodeIndented(buf, empty, "", "  "); err != nil {
		return nil, err
	}
	b := buf.Bytes()
	if len(b) < len(sweepTail) || string(b[len(b)-len(sweepTail):]) != sweepTail {
		return nil, fmt.Errorf("report: sweep header does not end in %q", sweepTail)
	}
	if _, err := w.Write(b[:len(b)-len(sweepTail)]); err != nil {
		return nil, fmt.Errorf("report: writing sweep header: %w", err)
	}
	return &SweepWriter{w: w, configs: configs}, nil
}

// WriteSection emits the next configuration's section from its canonical
// standalone document (MarshalResults bytes).
func (sw *SweepWriter) WriteSection(document []byte) error {
	if sw.err != nil {
		return sw.err
	}
	if sw.closed {
		return sw.fail(fmt.Errorf("report: WriteSection after Close"))
	}
	i := sw.next
	if i >= len(sw.configs) {
		return sw.fail(fmt.Errorf("report: section %d past the last of %d configs", i, len(sw.configs)))
	}
	if len(document) == 0 {
		c := sw.configs[i]
		return sw.fail(fmt.Errorf("report: config %d (scale %g, seed %d) has no document", i, c.Scale, c.Seed))
	}
	// The section sits inside the MarshalSweepSections document as a
	// separator, then the section object indented one array-element deep.
	sep := ",\n    "
	if i == 0 {
		sep = "\n    "
	}
	if _, err := io.WriteString(sw.w, sep); err != nil {
		return sw.fail(fmt.Errorf("report: writing sweep section %d: %w", i, err))
	}
	buf := getMarshalBuf()
	defer marshalBufs.Put(buf)
	sec := SweepSection{Config: sw.configs[i], Report: json.RawMessage(document)}
	if err := encodeIndented(buf, sec, "    ", "  "); err != nil {
		return sw.fail(fmt.Errorf("report: encoding sweep section %d: %w", i, err))
	}
	b := buf.Bytes()
	// encodeIndented appends a newline MarshalIndent would not; the
	// separator owns inter-section newlines.
	if _, err := sw.w.Write(b[:len(b)-1]); err != nil {
		return sw.fail(fmt.Errorf("report: writing sweep section %d: %w", i, err))
	}
	sw.next++
	return nil
}

// Close terminates the document. It fails — writing nothing — if any
// configuration's section has not been written, so a partially streamed
// sweep can never masquerade as a complete document.
func (sw *SweepWriter) Close() error {
	if sw.err != nil {
		return sw.err
	}
	if sw.closed {
		return sw.fail(fmt.Errorf("report: sweep writer closed twice"))
	}
	sw.closed = true
	if sw.next < len(sw.configs) {
		return sw.fail(fmt.Errorf("report: sweep document incomplete: %d of %d sections written", sw.next, len(sw.configs)))
	}
	tail := sweepTail
	if len(sw.configs) > 0 {
		tail = "\n  " + sweepTail
	}
	if _, err := io.WriteString(sw.w, tail); err != nil {
		return sw.fail(fmt.Errorf("report: writing sweep tail: %w", err))
	}
	return nil
}

func (sw *SweepWriter) fail(err error) error {
	sw.err = err
	return err
}
