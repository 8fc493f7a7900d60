package tenant

import (
	"bytes"
	"testing"
)

// FuzzTenantConfig decodes arbitrary bytes as a -tenant-config document
// with LoadFile's strict decoder and builds a registry from every config
// that decodes. Neither step may panic, and every registry NewRegistry
// accepts must hold the limits the gate and the breaker rely on: a
// positive weight, 1 ≤ min_samples ≤ window ≤ maxBreakerWindow, and a
// positive cooldown. The seed corpus is in testdata/fuzz/FuzzTenantConfig.
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
			if b := tn.breaker; b != nil {
				if b.min < 1 || b.min > b.window || b.window > maxBreakerWindow || len(b.outcomes) != b.window {
					t.Fatalf("tenant %q breaker accepted with min_samples %d, window %d", tn.name, b.min, b.window)
				}
				if b.cooldown <= 0 {
					t.Fatalf("tenant %q breaker accepted with cooldown %v", tn.name, b.cooldown)
				}
			}
		}
	})
}
