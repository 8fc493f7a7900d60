package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"strings"
	"testing"
	"time"
)

func TestParseFlags(t *testing.T) {
	o, err := parseFlags([]string{"-addr", "127.0.0.1:9999", "-executors", "4", "-queue", "8", "-cache", "16", "-sse-keepalive", "30s", "-pprof"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.addr != "127.0.0.1:9999" || o.cfg.Executors != 4 || o.cfg.QueueDepth != 8 || o.cfg.CacheEntries != 16 || o.cfg.SSEKeepAlive != 30*time.Second || !o.pprof {
		t.Fatalf("parsed %+v", o)
	}
	if o, err = parseFlags(nil, io.Discard); err != nil {
		t.Fatal(err)
	}
	if o.addr != ":8080" || o.cfg.Executors != 2 || o.cfg.SSEKeepAlive != 15*time.Second || o.pprof {
		t.Fatalf("defaults wrong: %+v", o)
	}
	if o.logFormat != "text" || o.logLevel != "info" || o.cfg.TraceBytes != 0 {
		t.Fatalf("observability defaults wrong: %+v", o)
	}
	if o, err = parseFlags([]string{"-log-format", "json", "-log-level", "debug", "-trace-bytes", "-1"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if o.logFormat != "json" || o.logLevel != "debug" || o.cfg.TraceBytes != -1 {
		t.Fatalf("observability flags wrong: %+v", o)
	}
}

// TestBuildLogger: the -log-format/-log-level pair resolves to handlers
// with the right encoding and threshold.
func TestBuildLogger(t *testing.T) {
	var buf bytes.Buffer
	o := options{logFormat: "json", logLevel: "warn"}
	log, err := o.buildLogger(&buf)
	if err != nil {
		t.Fatal(err)
	}
	log.Info("below threshold")
	log.Warn("kept")
	var line map[string]any
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("json handler output is not one JSON line: %q", buf.String())
	}
	if line["msg"] != "kept" || line["level"] != "WARN" {
		t.Fatalf("logged %v, want the warn record only", line)
	}

	buf.Reset()
	o = options{logFormat: "TEXT", logLevel: "INFO"} // case-insensitive
	if log, err = o.buildLogger(&buf); err != nil {
		t.Fatal(err)
	}
	log.Info("hello")
	if !strings.Contains(buf.String(), "msg=hello") {
		t.Fatalf("text handler output %q lacks logfmt msg", buf.String())
	}
}

func TestWithPprof(t *testing.T) {
	svc := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot) // sentinel for "reached the service"
	})
	probe := func(h http.Handler, path string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code
	}
	off := withPprof(svc, false)
	if code := probe(off, "/debug/pprof/"); code != http.StatusTeapot {
		t.Fatalf("pprof disabled: /debug/pprof/ hit status %d, want service sentinel", code)
	}
	on := withPprof(svc, true)
	if code := probe(on, "/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("pprof enabled: index status %d, want 200", code)
	}
	if code := probe(on, "/v1/jobs"); code != http.StatusTeapot {
		t.Fatalf("pprof enabled: service route status %d, want sentinel", code)
	}
}

func TestParseFlagsErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-bogus"},
		{"positional"},
		{"-executors", "0"},
		{"-queue", "-5"},
		{"-cache", "0"},
		{"-sse-keepalive", "50ms"},
		{"-log-format", "xml"},
		{"-log-level", "loud"},
		{"-lease-batch", "4"}, // the batch size is the worker's slot count, not a flag
	} {
		if _, err := parseFlags(args, io.Discard); err == nil {
			t.Errorf("args %v accepted, want error", args)
		}
	}
	// The daemon hosts no coordinator ('zen2ee sweep -listen-workers' is
	// the only one) and is no worker ('zen2ee worker' is), so the flags of
	// the coordinator and the worker mode it had are undefined.
	for _, args := range [][]string{
		{"-listen-workers"}, {"-lease-ttl", "5s"},
		{"-worker", "http://127.0.0.1:1"}, {"-worker-name", "n"},
	} {
		if _, err := parseFlags(args, io.Discard); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("args %v: err %v, want an undefined-flag error", args, err)
		}
	}
}

// TestDaemonLinksNoDist: distributed execution is the zen2ee CLI's (its
// coordinator and its worker command), so the daemon binary links none
// of internal/dist.
func TestDaemonLinksNoDist(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list; skipped under -short")
	}
	out, err := exec.Command("go", "list", "-deps", "zen2ee/cmd/zen2eed").CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	for _, pkg := range strings.Fields(string(out)) {
		if pkg == "zen2ee/internal/dist" {
			t.Fatal("cmd/zen2eed depends on zen2ee/internal/dist")
		}
	}
}
