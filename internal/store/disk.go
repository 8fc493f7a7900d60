// The disk tier: a content-addressed object store under one directory.
//
// Layout (documented in the README as layout version 2):
//
//	<dir>/objects/<key[:2]>/<key>   one file per payload, named by its
//	                                full content address and framed
//	                                with its length and CRC-32C (frame.go)
//	<dir>/tmp/                      in-flight writes (cleaned at open)
//
// Writes are crash-safe by construction: the object lands in tmp/, is
// fsync'd, and is renamed into place — a reader (this daemon after a
// restart, or another daemon sharing the directory) only ever sees whole
// objects. Because keys are content addresses, concurrent writers racing
// on one key write identical bytes, so last-rename-wins is harmless. Get
// checks every object's frame, so what the rename cannot rule out (a
// torn write under a lying disk, a bit flip, a file of the unframed
// version-1 layout) reads as a miss, counts as an error and is removed.
//
// The store keeps an in-memory recency index (rebuilt from file mtimes at
// open, so LRU order approximately survives restarts) and evicts
// least-recently-used objects once the summed payload size exceeds the
// byte bound; sizes are payload bytes throughout, frames excluded.
// Externally removed files degrade to misses, and externally added files
// are adopted on first Get — sharing a directory between daemons needs no
// coordination beyond the filesystem.
//
// Locking discipline: d.mu guards only the index. Every piece of file
// I/O — reads, the write/fsync/rename path, eviction unlinks — runs
// outside it, so one slow disk operation never serializes the other
// executors' hits. The cost is benign races between index and
// filesystem, all of which degrade to a miss and self-heal on the next
// touch of the key.

package store

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Disk is the persistent content-addressed result store (tier 2).
type Disk struct {
	dir string

	mu    sync.Mutex
	index lru // byte-bounded; no entry bound

	hits, misses, evictions, errors uint64
}

// NewDisk opens (creating if needed) the store rooted at dir, bounded to
// maxBytes of summed payload when maxBytes > 0. Leftover temp files from
// interrupted writes are removed, and the recency index is rebuilt from
// the resident objects' mtimes so eviction order carries across restarts.
func NewDisk(dir string, maxBytes int64) (*Disk, error) {
	for _, sub := range []string{objectsDir(dir), tmpDir(dir)} {
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, fmt.Errorf("store: creating %s: %w", sub, err)
		}
	}
	d := &Disk{dir: dir, index: newLRU(0, maxBytes)}
	victims, err := d.scan()
	if err != nil {
		return nil, err
	}
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
// It reads no object: each is indexed at its file size less the frame,
// and Get checks the frame. It returns the objects the byte bound evicts,
// for removeFiles.
func (d *Disk) scan() ([]string, error) {
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
		objs = append(objs, found{key: key, size: max(info.Size()-frameSize, 0), mtime: info.ModTime().UnixNano()})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: scanning %s: %w", objectsDir(d.dir), err)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].mtime < objs[j].mtime })
	var victims []string
	d.mu.Lock()
	for _, o := range objs {
		victims = append(victims, d.indexLocked(o.key, o.size)...)
	}
	d.mu.Unlock()
	return victims, nil
}

// Get reads the payload stored under key and checks its frame. An object
// whose frame fails (truncated, corrupted, or not framed at all) is a
// miss: the error is counted, the entry dropped and the file removed, so
// the next Put of the key writes it whole. An indexed entry whose file
// has vanished (an external cleanup, a sharing daemon's eviction)
// degrades to a miss too; an unindexed file that exists (a sharing
// daemon's write) is adopted into the index. The read itself runs outside
// d.mu — one slow read, or a concurrent Put's fsync, must not serialize
// every other caller of the store.
func (d *Disk) Get(key string) ([]byte, bool) {
	if !validKey(key) {
		return nil, false
	}
	data, err := os.ReadFile(d.path(key))
	d.mu.Lock()
	if err != nil && d.index.has(key) {
		// The miss may have raced an in-flight Put: the entry was indexed
		// after our read failed, and Put renames the object into place
		// before indexing it, so under that ordering one re-read settles
		// whether the file truly vanished.
		d.mu.Unlock()
		data, err = os.ReadFile(d.path(key))
		d.mu.Lock()
	}
	payload, ok := unframe(data)
	if !ok {
		corrupt := err == nil
		if corrupt || d.index.has(key) {
			// The object is unusable or gone: drop the entry.
			d.index.remove(key)
			d.errors++
		}
		d.misses++
		d.mu.Unlock()
		if corrupt {
			_ = os.Remove(d.path(key))
		}
		return nil, false
	}
	victims := d.indexLocked(key, int64(len(payload)))
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
	indexed := d.index.has(key)
	d.mu.Unlock()
	if indexed {
		_, err := os.Stat(d.path(key))
		d.mu.Lock()
		if err == nil {
			d.index.get(key) // refresh recency
		} else {
			// Indexed but the file vanished: drop the stale entry and fall
			// through to the write path so the payload actually persists.
			d.index.remove(key)
		}
		d.mu.Unlock()
		if err == nil {
			return
		}
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
	// A concurrent Put (or a Get adoption) may have indexed the key while
	// we wrote; indexing it again refreshes rather than double-counts.
	d.mu.Lock()
	victims := d.indexLocked(key, int64(len(payload)))
	d.mu.Unlock()
	d.removeFiles(victims)
}

// writeObject is the crash-safe write path of one framed object. Callers
// must NOT hold d.mu — the fsync here is the slowest thing the store ever
// does.
func (d *Disk) writeObject(key string, payload []byte) error {
	f, err := os.CreateTemp(tmpDir(d.dir), key[:8]+"-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func() { f.Close(); os.Remove(tmp) }
	header := frameHeader(payload)
	_, err = f.Write(header[:])
	if err == nil {
		_, err = f.Write(payload)
	}
	if err != nil {
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

// indexLocked records key as the most recently used object and returns
// the objects the byte bound evicts; the one just indexed is never among
// them, so an object larger than the bound is kept alone, as in the memory
// tier. Callers hold d.mu and must pass the victims to removeFiles after
// releasing it — the unlinks are file I/O too.
func (d *Disk) indexLocked(key string, size int64) []string {
	victims := d.index.put(key, size, nil)
	d.evictions += uint64(len(victims))
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
		revived := d.index.has(key)
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

// Stats snapshots the store for the metrics endpoint: the object set is
// both the fastest tier and the disk tier.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.index.stats()
	st.Disk = &DiskStats{
		Entries: st.Entries, Bytes: st.Bytes, CapacityBytes: st.MaxBytes,
		Hits: d.hits, Misses: d.misses, Evictions: d.evictions, Errors: d.errors,
	}
	return st
}
