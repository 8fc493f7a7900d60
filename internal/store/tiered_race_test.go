// Concurrency coverage for the tiered store, written to run under -race:
// Get/Put/Has storms across overlapping keys exercise the disk→memory
// promotion path, and a Get racing an in-flight disk Put must observe
// either a clean miss or the complete payload — never a torn read. The
// content-addressed temp-file+rename write path is what makes the second
// property hold; these tests pin it.

package store

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// tinyTiered builds a tiered store whose memory tier is so small that most
// Gets fall through to disk and promote — the contended path.
func tinyTiered(t *testing.T) *Tiered {
	t.Helper()
	disk, err := NewDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatalf("NewDisk: %v", err)
	}
	return NewTiered(NewMemory(2, 1<<20), disk)
}

// hexKey renders n as a valid disk-store content address (the disk tier
// silently rejects non-hex keys; see validKey).
func hexKey(n int) string {
	return fmt.Sprintf("%064x", n)
}

func racePayload(key int) []byte {
	return bytes.Repeat([]byte(fmt.Sprintf("payload-%03d-", key)), 64)
}

func TestTieredConcurrentGetPutHasPromotion(t *testing.T) {
	st := tinyTiered(t)
	const keys = 8
	const rounds = 200

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	report := func(format string, args ...any) {
		select {
		case errs <- fmt.Sprintf(format, args...):
		default:
		}
	}
	// Writers keep re-putting every key; readers Get and Has them
	// concurrently, forcing constant eviction out of the 2-entry memory
	// tier and promotion back from disk.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				key := hexKey((g + r) % keys)
				st.Put(key, racePayload((g+r)%keys))
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := (g + r) % keys
				key := hexKey(k)
				if payload, ok := st.Get(key); ok && !bytes.Equal(payload, racePayload(k)) {
					report("Get(%s) returned %d bytes not matching the only value ever written", key, len(payload))
					return
				}
				st.Has(key)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	// Quiescent state: every key readable with the right bytes, through
	// promotion for all but the two memory-resident ones.
	for k := 0; k < keys; k++ {
		key := hexKey(k)
		payload, ok := st.Get(key)
		if !ok {
			t.Fatalf("key %s missing after the storm", key)
		}
		if !bytes.Equal(payload, racePayload(k)) {
			t.Fatalf("key %s holds %d bytes, want the canonical payload", key, len(payload))
		}
	}
}

// TestTieredGetRacesInflightDiskPut hammers one key with a writer while
// readers Get it through the disk tier (the memory tier is kept cold by
// writing two other keys in between): every successful read must see the
// complete payload, the atomicity the rename-into-place write provides.
func TestTieredGetRacesInflightDiskPut(t *testing.T) {
	st := tinyTiered(t)
	key := hexKey(1000)
	want := racePayload(0)

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			st.Put(key, want)
			// Evict `key` from the 2-entry memory tier so concurrent Gets
			// must race the disk write, not the memory copy.
			st.Put(hexKey(2000+i%5), []byte("x"))
			st.Put(hexKey(3000+i%5), []byte("y"))
		}
	}()

	var readers sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for r := 0; r < 500; r++ {
				if payload, ok := st.Get(key); ok && !bytes.Equal(payload, want) {
					select {
					case errs <- fmt.Sprintf("torn read: %d bytes, want %d", len(payload), len(want)):
					default:
					}
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
