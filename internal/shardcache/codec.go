// The shard-output wire/storage codec. gob preserves float64 bit patterns
// exactly, so outputs round-trip without perturbing the byte-determinism
// of downstream reduction and marshaling — the one property that makes it
// safe both to ship a shard output across the dist protocol and to serve
// it from a cache instead of re-executing the shard. internal/dist and
// this package share these functions so a payload cached by a worker is
// byte-for-byte the payload the coordinator would have received.

package shardcache

import (
	"bytes"
	"encoding/gob"

	"zen2ee/internal/core"
)

// EncodeOutput serializes a shard output. A nil output encodes as an empty
// payload.
func EncodeOutput(v any) ([]byte, error) {
	if v == nil {
		return nil, nil
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeOutput is EncodeOutput's inverse.
func DecodeOutput(b []byte) (any, error) {
	if len(b) == 0 {
		return nil, nil
	}
	var v any
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&v); err != nil {
		return nil, err
	}
	return v, nil
}

func init() {
	// The shard-output types of the current registry: scalar metrics
	// (fig7's idle floor, tab1/fig4 samples), series ([]float64 sweeps,
	// fig8's latency matrix rows), and whole Results from the one-shard
	// plans of whole experiments — plus a few basics so simple custom
	// experiments need no entry. An experiment with a new output type adds
	// it here.
	for _, v := range []any{
		float64(0), []float64(nil), [][]float64(nil),
		int(0), int64(0), uint64(0), string(""), bool(false),
		map[string]float64(nil), map[string][]float64(nil),
		&core.Result{},
	} {
		gob.Register(v)
	}
}
