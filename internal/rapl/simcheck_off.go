//go:build !simcheck

package rapl

// domainShadow is empty unless built with -tags simcheck, which keeps an
// eagerly folded copy of every domain and checks each lazy read against it.
type domainShadow struct{}

func (domainShadow) init(*Model)                              {}
func (domainShadow) set(*Model, int, float64)                 {}
func (domainShadow) setCores(*Model, int, []float64, []int16) {}
func (domainShadow) adopt(*Model)                             {}
func (domainShadow) checkRead(*Model, int, float64)           {}
