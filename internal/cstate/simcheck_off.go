//go:build !simcheck

package cstate

// activeScan is empty unless built with -tags simcheck, which keeps the
// scratch counts of checkActive's full scan.
type activeScan struct{}

// checkActive is compiled out unless built with -tags simcheck, which
// recounts every core after each mutation and rejects a stale count.
func (m *Model) checkActive() {}
