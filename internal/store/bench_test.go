package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// benchPayload is the size of a daemon-mixed hit document (`fig3 tab1
// fig8` at scale 1, about 29 KB).
var benchPayload = bytes.Repeat([]byte(`{"k":"v"},`), 2900)

// BenchmarkDiskPut times one durable write of a new ~29 KB object. `store`
// is Disk.Put (frame, temp file, write, fsync, rename, directory fsync,
// index); `bare` is the temp-file write + fsync + rename alone, with the
// fsync reported apart (fsync-ns/op), so the share the disk itself takes
// shows next to what the store adds. An fsync on a shared virtual disk is
// noisy: compare quartiles of repeated runs, not one figure.
func BenchmarkDiskPut(b *testing.B) {
	b.Run("store", func(b *testing.B) {
		d, err := NewDisk(b.TempDir(), 0)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(benchPayload)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Put(key(fmt.Sprint("put-", i)), benchPayload)
		}
	})
	b.Run("bare", func(b *testing.B) {
		dir := b.TempDir()
		b.SetBytes(int64(len(benchPayload)))
		b.ReportAllocs()
		var syncs time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f, err := os.CreateTemp(dir, "tmp-*")
			if err != nil {
				b.Fatal(err)
			}
			if _, err := f.Write(benchPayload); err != nil {
				b.Fatal(err)
			}
			start := time.Now()
			if err := f.Sync(); err != nil {
				b.Fatal(err)
			}
			syncs += time.Since(start)
			if err := f.Close(); err != nil {
				b.Fatal(err)
			}
			if err := os.Rename(f.Name(), filepath.Join(dir, fmt.Sprint("obj-", i))); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(syncs.Nanoseconds())/float64(b.N), "fsync-ns/op")
	})
}

// BenchmarkDiskGet times a disk-tier hit on a ~29 KB object: the file read
// (from the page cache once warm) plus the index refresh.
func BenchmarkDiskGet(b *testing.B) {
	d, err := NewDisk(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	k := key("get")
	d.Put(k, benchPayload)
	b.SetBytes(int64(len(benchPayload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := d.Get(k); !ok {
			b.Fatal("stored object missed")
		}
	}
}
