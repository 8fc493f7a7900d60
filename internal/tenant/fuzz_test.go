package tenant

import (
	"bytes"
	"testing"
	"time"
)

// FuzzTenantConfig decodes arbitrary bytes as a -tenant-config document
// with LoadFile's strict decoder and builds a registry from every config
// that decodes. Neither step may panic, and every registry NewRegistry
// accepts must hold the limits the gate and the rate limiter rely on: a
// positive weight and a rate bucket whose every rejection hint is
// positive and finite. The seed corpus is in
// testdata/fuzz/FuzzTenantConfig; its breaker_* seeds and readme_example
// date from the retired circuit breaker and now stop at the decoder.
func FuzzTenantConfig(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := decodeConfig(bytes.NewReader(data))
		if err != nil {
			return
		}
		reg, err := NewRegistry(cfg)
		if err != nil {
			return
		}
		for _, tn := range reg.Tenants() {
			if !(tn.weight > 0) {
				t.Fatalf("tenant %q accepted with weight %v", tn.name, tn.weight)
			}
			if b := tn.bucket; b != nil {
				// An empty bucket at a frozen clock waits longest for a token.
				now := time.Unix(0, 0)
				b.now = func() time.Time { return now }
				b.tokens, b.last = 0, now
				limit := time.Duration(float64(time.Second)/minRateRPS) + time.Second
				if ok, retry := b.Take(); ok || retry <= 0 || retry > limit {
					t.Fatalf("tenant %q bucket (rate %v, burst %v) took %v with hint %v", tn.name, b.rate, b.burst, ok, retry)
				}
			}
		}
	})
}
