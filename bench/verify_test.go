package main

import (
	"io"
	"reflect"
	"testing"
	"time"

	"zen2ee/internal/core"
)

func TestKeysRoundTrip(t *testing.T) {
	configs := []core.Config{{Scale: 0.5, Seed: 7}, {Scale: 1, Seed: 18446744073709551615}}
	for _, c := range []struct {
		key   string
		sweep bool
		ids   []string
		cs    []core.Config
	}{
		{runKey(nil, configs[0]), false, nil, configs[:1]},
		{runKey(coldIDs, configs[1]), false, coldIDs, configs[1:]},
		{sweepKey(mixSweepIDs, configs), true, mixSweepIDs, configs},
	} {
		sweep, ids, cs, err := parseKey(c.key)
		if err != nil {
			t.Fatalf("%s: %v", c.key, err)
		}
		if sweep != c.sweep || !reflect.DeepEqual(ids, c.ids) || !reflect.DeepEqual(cs, c.cs) {
			t.Errorf("%s parsed to %v %v %v", c.key, sweep, ids, cs)
		}
	}
}

// TestVerifyCountsAFlippedByteAsFailed checks both halves of the output
// check: a sampled document against its reference, and every other
// document against the first one produced under its key.
func TestVerifyCountsAFlippedByteAsFailed(t *testing.T) {
	key := runKey([]string{"sec6acpi"}, core.Config{Scale: 0.05, Seed: 3})
	doc, err := reference(key)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), doc...)
	flipped[len(flipped)/2] ^= 1

	for _, c := range []struct {
		name string
		docs [][]byte
		// sampled marks which documents are checked against the reference.
		sampled []bool
		failed  int
	}{
		{"all match", [][]byte{doc, doc}, []bool{true, false}, 0},
		{"sampled document flipped", [][]byte{flipped, doc}, []bool{true, false}, 1},
		{"unsampled document differs from the first", [][]byte{doc, flipped}, []bool{false, false}, 1},
		{"every document checked against the reference", [][]byte{doc, flipped, doc}, []bool{false, true, false}, 1},
	} {
		b := newBench(1, time.Second, tinySize, false, io.Discard)
		for i, d := range c.docs {
			b.doc(key, d, c.sampled[i])
		}
		attempted, failed, err := b.verify(io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if attempted != len(c.docs) || failed != c.failed {
			t.Errorf("%s: %d attempted, %d failed; want %d, %d", c.name, attempted, failed, len(c.docs), c.failed)
		}
	}
}

func TestGoldenDigestsParse(t *testing.T) {
	if _, err := loadGolden(); err != nil {
		t.Fatal(err)
	}
}
