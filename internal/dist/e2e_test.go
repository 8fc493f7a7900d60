// Process-level end-to-end tests: the actual zen2ee binary run as
// `zen2ee worker` against an in-test coordinator, including a worker killed
// with SIGKILL mid-sweep (its leases expire and retry elsewhere) and one
// drained with SIGTERM (in-flight shards finish, nothing retries). These
// build the binary with the go tool, so they are skipped under -short.

package dist

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"
	"time"

	"zen2ee/internal/core"
)

func buildWorkerBinary(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and execs the zen2ee binary; skipped under -short")
	}
	bin := filepath.Join(t.TempDir(), "zen2ee")
	out, err := exec.Command("go", "build", "-o", bin, "zen2ee/cmd/zen2ee").CombinedOutput()
	if err != nil {
		t.Fatalf("building zen2ee: %v\n%s", err, out)
	}
	return bin
}

// spawnWorkerProcess starts `zen2ee worker` as a real child process.
func spawnWorkerProcess(t *testing.T, bin, coordinator, name string, slots int) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, "worker", "-name", name, "-parallel", strconv.Itoa(slots), coordinator)
	var logs bytes.Buffer
	cmd.Stderr = &logs
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting worker %s: %v", name, err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
		if t.Failed() {
			t.Logf("worker %s stderr:\n%s", name, logs.String())
		}
	})
	return cmd
}

func TestE2EWorkerProcessKilledMidSweep(t *testing.T) {
	bin := buildWorkerBinary(t)
	want := localBaseline(t)

	// Only the victim is registered when the sweep starts, so every shard
	// waits for it: the kill below cannot miss its window however fast the
	// shards run.
	env := newTestEnv(t, Config{LeaseTTL: 400 * time.Millisecond, RetryBackoff: 10 * time.Millisecond})
	victim := spawnWorkerProcess(t, bin, env.ts.URL, "victim", 2)
	waitFor(t, "victim worker process registered", func() bool { return env.c.WorkersConnected() == 1 })

	type sweepDone struct {
		sr  *core.SweepResult
		err error
	}
	done := make(chan sweepDone, 1)
	go func() {
		sr, err := core.RunSweep(testSweep(), core.RunConfig{Workers: 6, RunShard: env.c.RunShard}, nil)
		done <- sweepDone{sr, err}
	}()

	// SIGKILL the victim the moment it is observed holding a lease — the
	// closest in-test equivalent of a worker host dying. It is the only
	// worker, so every lease in flight is its.
	holding := func() bool { return env.c.LeasesInflight() >= 1 }
	for deadline := time.Now().Add(10 * time.Second); !holding(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("victim was never observed holding leases")
		}
	}
	victim.Process.Kill()
	victim.Wait()

	// The survivor joins only now: the victim's leases expire after the TTL
	// and retry on it.
	spawnWorkerProcess(t, bin, env.ts.URL, "survivor", 2)
	res := <-done
	if res.err != nil {
		t.Fatalf("sweep with SIGKILLed worker process: %v", res.err)
	}
	got := marshalSweep(t, res.sr)
	if !bytes.Equal(got, want) {
		t.Fatalf("sweep document after SIGKILL differs from local run (%d vs %d bytes)", len(got), len(want))
	}
	if env.c.RetriesTotal() < 1 {
		t.Fatalf("RetriesTotal = %d, want >= 1 after SIGKILLing a lease-holding worker", env.c.RetriesTotal())
	}
}

func TestE2EWorkerProcessDrainsOnSigterm(t *testing.T) {
	bin := buildWorkerBinary(t)
	want := localBaseline(t)

	// A one-minute TTL means expiry cannot help within this test: only the
	// graceful deregister path can hand unfinished work back in time.
	env := newTestEnv(t, Config{LeaseTTL: time.Minute})
	worker := spawnWorkerProcess(t, bin, env.ts.URL, "graceful", 2)
	waitFor(t, "worker process registered", func() bool { return env.c.WorkersConnected() == 1 })

	termed := make(chan bool, 1)
	go func() {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if shardsCompleted(env.c, "graceful") >= 1 {
				worker.Process.Signal(syscall.SIGTERM)
				termed <- true
				return
			}
			time.Sleep(time.Millisecond)
		}
		termed <- false
	}()

	sr, err := core.RunSweep(testSweep(), core.RunConfig{Workers: 6, RunShard: env.c.RunShard}, nil)
	if err != nil {
		t.Fatalf("sweep with SIGTERMed worker process: %v", err)
	}
	if !<-termed {
		t.Fatalf("worker never completed a shard; the SIGTERM was never sent")
	}
	if err := worker.Wait(); err != nil {
		t.Fatalf("SIGTERMed worker exited non-zero: %v", err)
	}
	got := marshalSweep(t, sr)
	if !bytes.Equal(got, want) {
		t.Fatalf("sweep document after graceful drain differs from local run (%d vs %d bytes)", len(got), len(want))
	}
	if got := env.c.RetriesTotal(); got != 0 {
		t.Fatalf("RetriesTotal = %d, want 0 — a graceful drain is not a fault", got)
	}
	if got := env.c.WorkersConnected(); got != 0 {
		t.Fatalf("WorkersConnected = %d after drain, want 0 (deregistered)", got)
	}
}
