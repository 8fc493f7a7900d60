// Process-level test of the distributed sweep coordinator, which only the
// CLI hosts: a real `zen2ee sweep -listen-workers 127.0.0.1:0 -min-workers
// 1` run waits for one real `zen2ee worker` process, which must execute
// its shards remotely. The sweep document must be byte-identical to a
// local run's. It sits beside the shard-cache resume test to share its
// binary build helper; both build with the go tool, so they are skipped
// under -short.

package shardcache

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

func coordinatorSweepArgs(outFile string) []string {
	return []string{"sweep", "tab1", "fig8", "-scales", "0.25", "-seeds", "1,2", "-json", "-o", outFile}
}

var coordinatorAddrRe = regexp.MustCompile(`coordinator listening on (\S+)`)

func TestE2ECLICoordinatorRunsShardsOnWorkerByteIdentical(t *testing.T) {
	cli := buildCLIBinary(t)
	dir := t.TempDir()

	refFile := filepath.Join(dir, "ref.json")
	if out, err := exec.Command(cli, coordinatorSweepArgs(refFile)...).CombinedOutput(); err != nil {
		t.Fatalf("local sweep: %v\n%s", err, out)
	}
	want, err := os.ReadFile(refFile)
	if err != nil {
		t.Fatalf("reading local output: %v", err)
	}

	// The trace does not change the results, and its remote spans show
	// which shards the worker executed.
	distFile := filepath.Join(dir, "dist.json")
	traceFile := filepath.Join(dir, "trace.json")
	coord := exec.Command(cli, append(coordinatorSweepArgs(distFile),
		"-listen-workers", "127.0.0.1:0", "-min-workers", "1", "-trace", traceFile)...)
	stderr, err := coord.StderrPipe()
	if err != nil {
		t.Fatalf("stderr pipe: %v", err)
	}
	if err := coord.Start(); err != nil {
		t.Fatalf("starting coordinator sweep: %v", err)
	}
	t.Cleanup(func() { coord.Process.Kill(); coord.Wait() })
	addrs := make(chan string, 1)
	var coordErr bytes.Buffer
	stderrDone := make(chan struct{})
	go func() {
		defer close(stderrDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			coordErr.WriteString(sc.Text() + "\n")
			if m := coordinatorAddrRe.FindStringSubmatch(sc.Text()); m != nil {
				addrs <- m[1]
			}
		}
	}()
	var addr string
	select {
	case addr = <-addrs:
	case <-stderrDone:
		t.Fatalf("coordinator exited before listening:\n%s", coordErr.String())
	case <-time.After(30 * time.Second):
		t.Fatalf("coordinator printed no listening address within 30s")
	}

	worker := exec.Command(cli, "worker", "-name", "e2eworker", "-parallel", "2", "http://"+addr)
	var workerErr bytes.Buffer
	worker.Stderr = &workerErr
	if err := worker.Start(); err != nil {
		t.Fatalf("starting worker: %v", err)
	}
	t.Cleanup(func() { worker.Process.Kill(); worker.Wait() })

	<-stderrDone
	if err := coord.Wait(); err != nil {
		t.Fatalf("coordinator sweep: %v\n%s\nworker stderr:\n%s", err, coordErr.String(), workerErr.String())
	}
	worker.Process.Signal(syscall.SIGTERM)
	worker.Wait()

	got, err := os.ReadFile(distFile)
	if err != nil {
		t.Fatalf("reading distributed output: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("distributed sweep differs from local sweep (%d vs %d bytes)", len(got), len(want))
	}
	// The coordinator logs the worker's lifecycle to its stderr.
	if !strings.Contains(coordErr.String(), "dist: worker registered") {
		t.Fatalf("coordinator stderr logs no worker registering:\n%s", coordErr.String())
	}

	raw, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatalf("reading trace: %v", err)
	}
	var trace struct {
		TraceEvents []struct {
			Cat  string         `json:"cat"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("decoding trace: %v", err)
	}
	remote := 0
	for _, ev := range trace.TraceEvents {
		if ev.Cat != "remote" {
			continue
		}
		if ev.Args["worker"] != "e2eworker" {
			t.Fatalf("remote span attributed to %v, want e2eworker", ev.Args["worker"])
		}
		remote++
	}
	if remote == 0 {
		t.Fatalf("trace holds no remote span: no shard ran on the worker")
	}
	t.Logf("%d shard(s) ran on the worker", remote)
}
