package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// fuzzKeys are the keys a FuzzDiskOpen script can place files for.
var fuzzKeys = []string{key("a"), key("b"), key("c")}

// fuzzPayload is what FuzzDiskOpen puts under fuzzKeys[i].
func fuzzPayload(i int) []byte { return []byte{'{', byte('0' + i), '}'} }

// fuzzLayout lays a script out as files under a store directory. Each step
// is an opcode byte, a length byte and that many content bytes (cut short
// at the end of the script). The opcode's low bits pick what to make for
// key fuzzKeys[op>>3%3]:
//
//	0: the key's object file, holding the content
//	1: a directory at the key's object path, with a file inside
//	2: a temp file under tmp/ (an interrupted write)
//	3: a foreign file name in the key's bucket
//	4: the key's object file in another key's bucket
//
// and 5–7 wrap around. It returns the object file contents it left in
// place for each key, and whether the key's object path is a directory.
func fuzzLayout(t *testing.T, dir string, script []byte) (objects map[string][]byte, dirs map[string]bool) {
	objects, dirs = map[string][]byte{}, map[string]bool{}
	write := func(path string, content []byte) {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for len(script) >= 2 {
		op, n := script[0], int(script[1])
		script = script[2:]
		content := script[:min(n, len(script))]
		script = script[len(content):]
		k := fuzzKeys[int(op>>3)%len(fuzzKeys)]
		object := filepath.Join(objectsDir(dir), k[:2], k)
		switch op & 7 % 5 {
		case 0:
			if dirs[k] {
				continue
			}
			write(object, content)
			objects[k] = bytes.Clone(content)
		case 1:
			if _, ok := objects[k]; ok {
				continue
			}
			write(filepath.Join(object, k), content)
			dirs[k] = true
		case 2:
			write(filepath.Join(tmpDir(dir), k[:8]+"-interrupted"), content)
		case 3:
			write(filepath.Join(objectsDir(dir), k[:2], "x"+k), content)
		case 4:
			write(filepath.Join(objectsDir(dir), "zz", k), content)
		}
	}
	return objects, dirs
}

// FuzzDiskOpen opens a disk store over arbitrary directory contents and
// drives Get, Has and Put on it. Nothing may panic, and Get may serve only
// a payload whose frame holds: a placed object file's own framed payload,
// or what Put stored. A Put of a key whose object already serves keeps
// that object (keys are content addresses, so the store does not rewrite
// it); after the Puts every key whose path is not a directory serves.
func FuzzDiskOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		dir := t.TempDir()
		objects, dirs := fuzzLayout(t, dir, script)
		d, err := NewDisk(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		served := map[string][]byte{}
		for _, k := range fuzzKeys {
			d.Has(k)
			got, ok := d.Get(k)
			if !ok {
				continue
			}
			want, valid := unframe(objects[k])
			if _, placed := objects[k]; !placed || !valid || !bytes.Equal(got, want) {
				t.Fatalf("Get(%s) served %q from a file holding %q", k[:8], got, objects[k])
			}
			served[k] = got
		}
		allowed := func(i int, got []byte) bool {
			prev, ok := served[fuzzKeys[i]]
			return bytes.Equal(got, fuzzPayload(i)) || ok && bytes.Equal(got, prev)
		}
		for i, k := range fuzzKeys {
			d.Put(k, fuzzPayload(i))
			got, ok := d.Get(k)
			if ok && !allowed(i, got) || !ok && !dirs[k] {
				t.Fatalf("Get(%s) after Put = %q, %v; want %q", k[:8], got, ok, fuzzPayload(i))
			}
		}
		// A reopen under a byte bound evicts at open; what stays serves
		// what it served before.
		d, err = NewDisk(dir, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range fuzzKeys {
			if got, ok := d.Get(k); ok && !allowed(i, got) {
				t.Fatalf("reopened Get(%s) = %q, want %q", k[:8], got, fuzzPayload(i))
			}
		}
		if st := d.Stats(); st.Entries < 0 || st.Bytes < 0 {
			t.Fatalf("reopened stats %+v", st)
		}
	})
}
