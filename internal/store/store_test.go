package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// key derives a valid content address from a short label.
func key(label string) string {
	sum := sha256.Sum256([]byte(label))
	return hex.EncodeToString(sum[:])
}

func TestMemoryLRU(t *testing.T) {
	c := NewMemory(2, 0)
	c.Put(key("a"), []byte("A"))
	c.Put(key("b"), []byte("B"))
	if _, ok := c.Get(key("a")); !ok {
		t.Fatal("a missing before eviction")
	}
	c.Put(key("c"), []byte("C")) // evicts b (a was refreshed)
	if _, ok := c.Get(key("b")); ok {
		t.Fatal("b should have been evicted")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(key(k)); !ok {
			t.Fatalf("%s missing after eviction round", k)
		}
	}
	if c.Stats().Entries != 2 {
		t.Fatalf("Len = %d, want 2", c.Stats().Entries)
	}
}

func TestMemoryByteBound(t *testing.T) {
	c := NewMemory(100, 10)
	c.Put(key("a"), bytes.Repeat([]byte("x"), 6))
	c.Put(key("b"), bytes.Repeat([]byte("y"), 6)) // 12 bytes > 10: evicts a
	if _, ok := c.Get(key("a")); ok {
		t.Fatal("a should have been evicted by the byte bound")
	}
	if got := c.Stats().Bytes; got != 6 {
		t.Fatalf("Bytes = %d, want 6", got)
	}
	// An oversize entry is kept alone rather than rejected.
	c.Put(key("huge"), bytes.Repeat([]byte("z"), 64))
	if _, ok := c.Get(key("huge")); !ok {
		t.Fatal("oversize entry should be kept alone")
	}
	if c.Stats().Entries != 1 {
		t.Fatalf("Len = %d after oversize put, want 1", c.Stats().Entries)
	}
}

// TestDiskByteBound is TestMemoryByteBound for the disk tier: the byte
// bound evicts the least recently used object, file included, and a
// single object larger than the bound is kept alone.
func TestDiskByteBound(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk(dir, 10)
	if err != nil {
		t.Fatal(err)
	}
	d.Put(key("a"), bytes.Repeat([]byte("x"), 6))
	d.Put(key("b"), bytes.Repeat([]byte("y"), 6)) // 12 bytes > 10: evicts a
	if d.Has(key("a")) {
		t.Fatal("a's object should have been removed by the byte bound")
	}
	if got := d.Stats().Bytes; got != 6 {
		t.Fatalf("Bytes = %d, want 6", got)
	}
	// An oversize object is kept alone rather than rejected.
	d.Put(key("huge"), bytes.Repeat([]byte("z"), 64))
	if got, ok := d.Get(key("huge")); !ok || len(got) != 64 {
		t.Fatalf("oversize object: Get = %d bytes, %v; want it kept alone", len(got), ok)
	}
	if d.Stats().Entries != 1 || d.Has(key("b")) {
		t.Fatalf("Len = %d, b resident %v after oversize put; want 1 and false", d.Stats().Entries, d.Has(key("b")))
	}
	if got := d.Stats().Bytes; got != 64 {
		t.Fatalf("Bytes = %d, want 64", got)
	}
}

func TestDiskPutGetSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"doc":1}`)
	d.Put(key("a"), payload)
	got, ok := d.Get(key("a"))
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want the stored payload", got, ok)
	}

	// A fresh store over the same directory serves the same bytes.
	d2, err := NewDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, ok = d2.Get(key("a"))
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("reopened Get = %q, %v; want the stored payload", got, ok)
	}
	if d2.Stats().Entries != 1 || d2.Stats().Bytes != int64(len(payload)) {
		t.Fatalf("reopened index: Len %d Bytes %d, want 1/%d", d2.Stats().Entries, d2.Stats().Bytes, len(payload))
	}
}

func TestDiskEvictionLRU(t *testing.T) {
	d, err := NewDisk(t.TempDir(), 20)
	if err != nil {
		t.Fatal(err)
	}
	d.Put(key("a"), bytes.Repeat([]byte("a"), 8))
	d.Put(key("b"), bytes.Repeat([]byte("b"), 8))
	d.Get(key("a")) // refresh a
	d.Put(key("c"), bytes.Repeat([]byte("c"), 8))
	if _, ok := d.Get(key("b")); ok {
		t.Fatal("b should have been evicted (LRU)")
	}
	if _, ok := d.Get(key("a")); !ok {
		t.Fatal("a should have survived (refreshed)")
	}
	st := d.Stats().Disk
	if st.Evictions == 0 {
		t.Fatalf("Stats.Evictions = 0, want > 0 (%+v)", st)
	}
	// The evicted file is actually gone from the directory.
	if _, err := os.Stat(d.path(key("b"))); !os.IsNotExist(err) {
		t.Fatalf("evicted object still on disk: %v", err)
	}
}

func TestDiskExternalRemovalAndAdoption(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	d.Put(key("a"), []byte("A"))
	// External removal (a sharing daemon's eviction) degrades to a miss.
	os.Remove(d.path(key("a")))
	if _, ok := d.Get(key("a")); ok {
		t.Fatal("externally removed object should read as a miss")
	}
	if d.Stats().Entries != 0 {
		t.Fatalf("Len = %d after external removal, want 0", d.Stats().Entries)
	}
	// External write (a sharing daemon's put) is adopted on first Get.
	other, err := NewDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	other.Put(key("b"), []byte("B"))
	got, ok := d.Get(key("b"))
	if !ok || string(got) != "B" {
		t.Fatalf("Get of externally written object = %q, %v", got, ok)
	}
	if d.Stats().Entries != 1 {
		t.Fatalf("Len = %d after adoption, want 1", d.Stats().Entries)
	}
}

func TestDiskPutRewritesExternallyRemoved(t *testing.T) {
	d, err := NewDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	d.Put(key("a"), []byte("A"))
	// A sharing daemon (or an out-of-band cleanup) removed the object but
	// this store's index still lists it. A re-Put must persist the bytes,
	// not silently no-op on the stale index entry.
	os.Remove(d.path(key("a")))
	d.Put(key("a"), []byte("A"))
	if _, err := os.Stat(d.path(key("a"))); err != nil {
		t.Fatalf("re-Put after external removal left no object file: %v", err)
	}
	if got, ok := d.Get(key("a")); !ok || string(got) != "A" {
		t.Fatalf("Get after re-Put = %q, %v; want the rewritten payload", got, ok)
	}
}

func TestHasProbesWithoutPromotion(t *testing.T) {
	disk, err := NewDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemory(1, 0)
	ts := NewTiered(mem, disk)
	ts.Put(key("a"), []byte("A"))
	ts.Put(key("b"), []byte("B")) // memory holds only b; a lives on disk
	for _, k := range []string{"a", "b"} {
		if !ts.Has(key(k)) {
			t.Fatalf("Has(%s) = false, want true", k)
		}
	}
	if ts.Has(key("missing")) || ts.Has("not-a-content-address") {
		t.Fatal("Has must miss on absent or invalid keys")
	}
	// The disk-tier probe of a promoted nothing: b still owns the memory
	// slot, and the disk Get counters never moved (stat only).
	if !mem.Has(key("b")) || mem.Has(key("a")) {
		t.Fatal("Has must not promote disk entries into the memory tier")
	}
	if st := disk.Stats().Disk; st.Hits != 0 && st.Misses != 0 {
		t.Fatalf("disk stats moved on Has: %+v", st)
	}
	// Memory.Has must not refresh recency: probing a then adding c must
	// still evict a (the LRU order is untouched by the probe).
	mem2 := NewMemory(2, 0)
	mem2.Put(key("x"), []byte("X"))
	mem2.Put(key("y"), []byte("Y"))
	mem2.Has(key("x"))
	mem2.Put(key("z"), []byte("Z"))
	if mem2.Has(key("x")) {
		t.Fatal("Has refreshed recency: x survived an eviction it should have lost")
	}
	// Has trusts the filesystem over the disk index, both ways.
	os.Remove(disk.path(key("a")))
	if disk.Has(key("a")) {
		t.Fatal("Has reported an externally removed object")
	}
}

func TestDiskRejectsInvalidKeys(t *testing.T) {
	d, err := NewDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "short", "../../../../etc/passwd", key("x")[:10] + "/" + key("x")[:53]} {
		d.Put(bad, []byte("nope"))
		if _, ok := d.Get(bad); ok {
			t.Fatalf("invalid key %q must never hit", bad)
		}
	}
	if d.Stats().Entries != 0 {
		t.Fatalf("invalid keys stored: Len = %d", d.Stats().Entries)
	}
}

func TestDiskCleansTempFilesAtOpen(t *testing.T) {
	dir := t.TempDir()
	if _, err := NewDisk(dir, 0); err != nil {
		t.Fatal(err)
	}
	leftover := filepath.Join(tmpDir(dir), "abcd1234-interrupted")
	if err := os.WriteFile(leftover, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDisk(dir, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(leftover); !os.IsNotExist(err) {
		t.Fatal("interrupted temp write should be removed at open")
	}
}

func TestTieredFallthroughAndPromotion(t *testing.T) {
	disk, err := NewDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTiered(NewMemory(1, 0), disk)
	a, b := []byte("payload-a"), []byte("payload-b")
	ts.Put(key("a"), a)
	ts.Put(key("b"), b) // memory holds only b now; a lives on disk

	got, ok := ts.Get(key("a"))
	if !ok || !bytes.Equal(got, a) {
		t.Fatalf("disk fallthrough Get = %q, %v", got, ok)
	}
	// The hit promoted a back into memory (evicting b from the memory
	// tier); b still falls through to disk.
	if ts.Stats().Entries != 1 {
		t.Fatalf("memory tier Len = %d, want 1", ts.Stats().Entries)
	}
	if got, ok := ts.Get(key("b")); !ok || !bytes.Equal(got, b) {
		t.Fatalf("b fallthrough Get = %q, %v", got, ok)
	}
	st := disk.Stats().Disk
	if st.Hits < 2 {
		t.Fatalf("disk hits = %d, want >= 2 (%+v)", st.Hits, st)
	}
}

func TestTieredSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	disk, err := NewDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTiered(NewMemory(8, 0), disk)
	ts.Put(key("a"), []byte("doc"))

	disk2, err := NewDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := NewTiered(NewMemory(8, 0), disk2)
	got, ok := ts2.Get(key("a"))
	if !ok || string(got) != "doc" {
		t.Fatalf("restarted tiered Get = %q, %v", got, ok)
	}
}

func TestDiskConcurrentAccess(t *testing.T) {
	d, err := NewDisk(t.TempDir(), 4096)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := key(fmt.Sprintf("obj-%d", i%10))
				d.Put(k, []byte(fmt.Sprintf("payload-%d", i%10)))
				d.Has(k)
				if got, ok := d.Get(k); ok {
					if want := fmt.Sprintf("payload-%d", i%10); string(got) != want {
						t.Errorf("Get(%s) = %q, want %q", k[:8], got, want)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestDiskRejectsDamagedObjects: an object whose frame fails — cut short,
// one bit flipped, or written in the unframed version-1 layout — reads as
// a miss after a reopen, counts as an error and is removed, and the next
// Put writes it whole. Has stays a bare stat, so it reports the damaged
// file until a Get finds it out.
func TestDiskRejectsDamagedObjects(t *testing.T) {
	payload := []byte(`{"schema":1,"results":[]}`)
	for _, tc := range []struct {
		name   string
		damage func(path string) error
	}{
		{"truncated", func(path string) error { return os.Truncate(path, 7) }},
		{"bit-flipped", func(path string) error {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			b[len(b)-1] ^= 0x04
			return os.WriteFile(path, b, 0o644)
		}},
		{"unframed", func(path string) error { return os.WriteFile(path, payload, 0o644) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d, err := NewDisk(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			d.Put(key("a"), payload)
			path := d.path(key("a"))
			if err := tc.damage(path); err != nil {
				t.Fatal(err)
			}
			d, err = NewDisk(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !d.Has(key("a")) {
				t.Fatal("Has must report the damaged file: it is a stat, not a read")
			}
			if got, ok := d.Get(key("a")); ok {
				t.Fatalf("damaged object served: Get = %q, true", got)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("damaged object not removed: stat error %v", err)
			}
			st := d.Stats()
			if st.Disk.Errors != 1 || st.Disk.Misses != 1 || st.Entries != 0 || st.Bytes != 0 {
				t.Fatalf("stats after the damaged read: %+v %+v; want 1 error, 1 miss, nothing indexed", st, *st.Disk)
			}
			d.Put(key("a"), payload)
			if got, ok := d.Get(key("a")); !ok || !bytes.Equal(got, payload) {
				t.Fatalf("Get after re-Put = %q, %v; want the payload", got, ok)
			}
		})
	}
}
