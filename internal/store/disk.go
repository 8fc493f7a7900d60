// The disk tier: a content-addressed object store under one directory.
//
// Layout (documented in the README, stable across versions):
//
//	<dir>/objects/<key[:2]>/<key>   one file per payload, named by its
//	                                full content address
//	<dir>/tmp/                      in-flight writes (cleaned at open)
//
// Writes are crash-safe by construction: the payload lands in tmp/, is
// fsync'd, and is renamed into place — a reader (this daemon after a
// restart, or another daemon sharing the directory) only ever sees whole
// objects. Because keys are content addresses, concurrent writers racing
// on one key write identical bytes, so last-rename-wins is harmless.
//
// The store keeps an in-memory recency index (rebuilt from file mtimes at
// open, so LRU order approximately survives restarts) and evicts
// least-recently-used objects once the summed payload size exceeds the
// byte bound. Externally removed files degrade to misses, and externally
// added files are adopted on first Get — sharing a directory between
// daemons needs no coordination beyond the filesystem.
//
// Locking discipline: d.mu guards only the index. Every piece of file
// I/O — reads, the write/fsync/rename path, eviction unlinks — runs
// outside it, so one slow disk operation never serializes the other
// executors' hits. The cost is benign races between index and
// filesystem, all of which degrade to a miss and self-heal on the next
// touch of the key.

package store

import (
	"container/list"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Disk is the persistent content-addressed result store (tier 2).
type Disk struct {
	dir      string
	maxBytes int64 // 0 = no byte bound

	mu       sync.Mutex
	curBytes int64
	order    *list.List // front = most recently used
	items    map[string]*list.Element

	hits, misses, evictions, errors uint64
}

type diskEntry struct {
	key  string
	size int64
}

// NewDisk opens (creating if needed) the store rooted at dir, bounded to
// maxBytes of summed payload when maxBytes > 0. Leftover temp files from
// interrupted writes are removed, and the recency index is rebuilt from
// the resident objects' mtimes so eviction order carries across restarts.
func NewDisk(dir string, maxBytes int64) (*Disk, error) {
	if maxBytes < 0 {
		maxBytes = 0
	}
	for _, sub := range []string{objectsDir(dir), tmpDir(dir)} {
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, fmt.Errorf("store: creating %s: %w", sub, err)
		}
	}
	d := &Disk{dir: dir, maxBytes: maxBytes, order: list.New(), items: map[string]*list.Element{}}
	if err := d.scan(); err != nil {
		return nil, err
	}
	d.mu.Lock()
	victims := d.evictLocked()
	d.mu.Unlock()
	d.removeFiles(victims)
	return d, nil
}

func objectsDir(dir string) string { return filepath.Join(dir, "objects") }
func tmpDir(dir string) string     { return filepath.Join(dir, "tmp") }

func (d *Disk) path(key string) string {
	return filepath.Join(objectsDir(d.dir), key[:2], key)
}

// validKey reports whether key is a full content address — lowercase hex,
// long enough to shard by its first byte. Anything else never touches the
// filesystem (the store's keys double as file names, so this is also the
// path-traversal guard).
func validKey(key string) bool {
	if len(key) < 16 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// scan rebuilds the index from the resident objects, oldest mtime first so
// the LRU order survives the restart, and clears interrupted temp writes.
func (d *Disk) scan() error {
	if entries, err := os.ReadDir(tmpDir(d.dir)); err == nil {
		for _, e := range entries {
			_ = os.Remove(filepath.Join(tmpDir(d.dir), e.Name()))
		}
	}
	type found struct {
		key   string
		size  int64
		mtime int64
	}
	var objs []found
	err := filepath.WalkDir(objectsDir(d.dir), func(path string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return err
		}
		key := de.Name()
		if !validKey(key) {
			return nil // foreign file; leave it alone
		}
		info, err := de.Info()
		if err != nil {
			return nil // raced an external removal
		}
		objs = append(objs, found{key: key, size: info.Size(), mtime: info.ModTime().UnixNano()})
		return nil
	})
	if err != nil {
		return fmt.Errorf("store: scanning %s: %w", objectsDir(d.dir), err)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].mtime < objs[j].mtime })
	for _, o := range objs {
		d.items[o.key] = d.order.PushFront(&diskEntry{key: o.key, size: o.size})
		d.curBytes += o.size
	}
	return nil
}

// Get reads the payload stored under key. An indexed entry whose file has
// vanished (an external cleanup, a sharing daemon's eviction) degrades to
// a miss; an unindexed file that exists (a sharing daemon's write) is
// adopted into the index. The read itself runs outside d.mu — one slow
// read, or a concurrent Put's fsync, must not serialize every other
// caller of the store.
func (d *Disk) Get(key string) ([]byte, bool) {
	if !validKey(key) {
		return nil, false
	}
	payload, err := os.ReadFile(d.path(key))
	d.mu.Lock()
	el, indexed := d.items[key]
	if err != nil && indexed {
		// The miss may have raced an in-flight Put: the entry was indexed
		// after our read failed, and Put renames the object into place
		// before indexing it, so under that ordering one re-read settles
		// whether the file truly vanished.
		d.mu.Unlock()
		payload, err = os.ReadFile(d.path(key))
		d.mu.Lock()
		el, indexed = d.items[key]
	}
	if err != nil {
		if indexed {
			// The file is gone out from under the index: drop the entry.
			d.dropLocked(el)
			d.errors++
		}
		d.misses++
		d.mu.Unlock()
		return nil, false
	}
	var victims []string
	if indexed {
		e := el.Value.(*diskEntry)
		d.curBytes += int64(len(payload)) - e.size
		e.size = int64(len(payload))
		d.order.MoveToFront(el)
	} else {
		d.items[key] = d.order.PushFront(&diskEntry{key: key, size: int64(len(payload))})
		d.curBytes += int64(len(payload))
		victims = d.evictLocked()
	}
	d.hits++
	d.mu.Unlock()
	d.removeFiles(victims)
	return payload, true
}

// Has reports whether an object file for key exists, by stat alone: no
// payload read, no index mutation, no recency refresh, and no d.mu — an
// existence probe that can never stall behind another caller's I/O.
// Like Get, it trusts the filesystem over the index, so an externally
// added object counts and an externally removed one does not.
func (d *Disk) Has(key string) bool {
	if !validKey(key) {
		return false
	}
	info, err := os.Stat(d.path(key))
	return err == nil && !info.IsDir()
}

// Put durably stores a payload: temp file, fsync, rename into place. An
// entry already resident is only touched for recency — payloads are
// immutable per key, so rewriting identical bytes would be wasted I/O —
// but the index is trusted only as far as the filesystem agrees: when
// the object file was removed externally (a sharing daemon's eviction,
// an out-of-band cleanup), the payload is rewritten rather than silently
// dropped. Write failures (full disk, permissions) are counted and
// swallowed: the disk tier is an accelerator, and losing it must not
// fail the job that produced the payload. All file I/O — the stat, the
// write, the fsync, the rename — runs outside d.mu; see Get.
func (d *Disk) Put(key string, payload []byte) {
	if !validKey(key) {
		return
	}
	d.mu.Lock()
	_, indexed := d.items[key]
	d.mu.Unlock()
	if indexed {
		if _, err := os.Stat(d.path(key)); err == nil {
			d.mu.Lock()
			if el, ok := d.items[key]; ok {
				d.order.MoveToFront(el)
			}
			d.mu.Unlock()
			return
		}
		// Indexed but the file vanished: drop the stale entry and fall
		// through to the write path so the payload actually persists.
		d.mu.Lock()
		if el, ok := d.items[key]; ok {
			d.dropLocked(el)
		}
		d.mu.Unlock()
	}
	// Concurrent writers racing on one key write identical bytes (keys
	// are content addresses), so either order of their renames leaves the
	// same object on disk.
	if err := d.writeObject(key, payload); err != nil {
		d.mu.Lock()
		d.errors++
		d.mu.Unlock()
		return
	}
	d.mu.Lock()
	if el, ok := d.items[key]; ok {
		// A concurrent Put (or a Get adoption) indexed the key while we
		// wrote; refresh rather than double-count.
		e := el.Value.(*diskEntry)
		d.curBytes += int64(len(payload)) - e.size
		e.size = int64(len(payload))
		d.order.MoveToFront(el)
	} else {
		d.items[key] = d.order.PushFront(&diskEntry{key: key, size: int64(len(payload))})
		d.curBytes += int64(len(payload))
	}
	victims := d.evictLocked()
	d.mu.Unlock()
	d.removeFiles(victims)
}

// writeObject is the crash-safe write path. Callers must NOT hold d.mu —
// the fsync here is the slowest thing the store ever does.
func (d *Disk) writeObject(key string, payload []byte) error {
	f, err := os.CreateTemp(tmpDir(d.dir), key[:8]+"-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func() { f.Close(); os.Remove(tmp) }
	if _, err := f.Write(payload); err != nil {
		cleanup()
		return err
	}
	if err := f.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	bucket := filepath.Join(objectsDir(d.dir), key[:2])
	if err := os.MkdirAll(bucket, 0o755); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, d.path(key)); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(bucket) // best-effort: the rename itself is already atomic
	return nil
}

// syncDir fsyncs a directory so the rename that just landed in it is
// durable; errors are ignored (some filesystems reject directory fsync).
func syncDir(dir string) {
	if f, err := os.Open(dir); err == nil {
		_ = f.Sync()
		_ = f.Close()
	}
}

// evictLocked drops least-recently-used index entries while the byte
// bound is exceeded and more than one entry is indexed, and returns the
// evicted keys. Put and Get move the entry they index to the front before
// they call it, so it is never evicted: an entry larger than the bound is
// kept alone, as in the memory tier. Callers hold d.mu and must pass the
// victims to removeFiles after releasing it — the unlinks are file I/O
// too.
func (d *Disk) evictLocked() (victims []string) {
	if d.maxBytes <= 0 {
		return nil
	}
	for d.curBytes > d.maxBytes && d.order.Len() > 1 {
		oldest := d.order.Back()
		e := oldest.Value.(*diskEntry)
		d.dropLocked(oldest)
		victims = append(victims, e.key)
		d.evictions++
	}
	return victims
}

// removeFiles unlinks evicted objects. Callers must not hold d.mu. A key
// that was re-indexed between eviction and unlink (a racing Put of the
// same content) is left alone; the residual window between that check
// and the unlink can at worst orphan an index entry, which the next Get
// degrades to a miss and drops — the store's documented behavior for
// externally removed files.
func (d *Disk) removeFiles(victims []string) {
	for _, key := range victims {
		d.mu.Lock()
		_, revived := d.items[key]
		d.mu.Unlock()
		if revived {
			continue
		}
		if err := os.Remove(d.path(key)); err != nil && !os.IsNotExist(err) {
			d.mu.Lock()
			d.errors++
			d.mu.Unlock()
		}
	}
}

// dropLocked removes an entry from the index only. Callers hold d.mu.
func (d *Disk) dropLocked(el *list.Element) {
	e := el.Value.(*diskEntry)
	d.order.Remove(el)
	delete(d.items, e.key)
	d.curBytes -= e.size
}

// Len reports resident objects.
func (d *Disk) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.order.Len()
}

// Bytes reports the summed payload size of the resident objects.
func (d *Disk) Bytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.curBytes
}

// Stats snapshots the store for the metrics endpoint.
func (d *Disk) Stats() DiskStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return DiskStats{
		Entries: d.order.Len(), Bytes: d.curBytes, CapacityBytes: d.maxBytes,
		Hits: d.hits, Misses: d.misses, Evictions: d.evictions, Errors: d.errors,
	}
}

// Close implements ResultStore; the disk store holds no open handles.
func (d *Disk) Close() error { return nil }
