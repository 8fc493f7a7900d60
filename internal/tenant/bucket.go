// The admission token bucket. One bucket per rate-limited tenant: tokens
// accrue at rate_rps up to burst, one token is spent per submission, and
// an empty bucket rejects with the exact duration until the next token —
// which the service surfaces as the Retry-After header, so well-behaved
// clients converge on the sustained rate instead of hammering.

package tenant

import (
	"math"
	"sync"
	"time"
)

// minRateRPS is the lowest accepted rate_rps: one token per ~11.6 days.
// The longest wait Take reports is 1/rate seconds, and a lower rate (a
// subnormal one, say) would overflow time.Duration.
const minRateRPS = 1e-6

// Bucket is a token-bucket rate limiter. Safe for concurrent use.
type Bucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
	now    func() time.Time // injectable for deterministic tests
}

// NewBucket builds a bucket that starts full.
func NewBucket(rate, burst float64) *Bucket {
	b := &Bucket{rate: rate, burst: burst, tokens: burst, now: time.Now}
	b.last = b.now()
	return b
}

// Take spends one token. When the bucket is empty it reports false and
// the duration until a full token will have accrued.
func (b *Bucket) Take() (ok bool, retryAfter time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	b.tokens += now.Sub(b.last).Seconds() * b.rate
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	// Rounded up, so the wait is never zero: a rejected client that waits
	// it finds a token.
	need := (1 - b.tokens) / b.rate
	return false, time.Duration(math.Ceil(need * float64(time.Second)))
}
