package service

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// decodeStrict decodes data the way decodeSpec decodes a request body.
func decodeStrict(data []byte, into any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(into)
}

// FuzzSpecCanonical decodes arbitrary bytes as a run Spec and as a
// SweepSpec, as the submission handlers do. For every spec canonicalize
// accepts, canonicalizing again must change nothing, key included, and a
// run spec's key must equal configKey(0) of the one-configuration sweep
// it executes as — the seam through which run jobs and sweeps share cache
// entries. The seed corpus is in testdata/fuzz/FuzzSpecCanonical.
func FuzzSpecCanonical(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec Spec
		if decodeStrict(data, &spec) == nil {
			if c, err := spec.canonicalize(); err == nil {
				again, err := c.canonicalize()
				if err != nil || !reflect.DeepEqual(again, c) || again.key() != c.key() {
					t.Fatalf("Spec canonicalize not idempotent: %+v -> %+v (%v)", c, again, err)
				}
				sw := newJob(c).sweep
				if sw.configKey(0) != c.key() {
					t.Fatalf("run spec %+v keys %s, its one-config sweep %s", c, c.key(), sw.configKey(0))
				}
				if canon, err := sw.canonicalize(); err != nil || !reflect.DeepEqual(canon, sw) {
					t.Fatalf("run spec %+v executes as non-canonical sweep %+v -> %+v (%v)", c, sw, canon, err)
				}
			}
		}
		var sweep SweepSpec
		if decodeStrict(data, &sweep) == nil {
			if c, err := sweep.canonicalize(); err == nil {
				again, err := c.canonicalize()
				if err != nil || !reflect.DeepEqual(again, c) || again.key() != c.key() {
					t.Fatalf("SweepSpec canonicalize not idempotent: %+v -> %+v (%v)", c, again, err)
				}
			}
		}
	})
}
