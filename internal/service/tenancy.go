// The service side of multi-tenant governance: request authentication,
// admission rejections with Retry-After, and the GET /v1/tenants listing.
// All policy lives in internal/tenant; this file is the HTTP seam.
//
// A daemon without a tenant registry (Config.Tenants nil) runs exactly as
// before: every request maps to one unlimited built-in tenant, no auth is
// required, /v1/tenants answers 404, and no tenant metric series are
// emitted. The scheduling side effects — the priority job queue and the
// weighted-fair shard gate — still apply, but with a single tenant they
// reduce to "interactive jobs ahead of bulk sweeps", which preserves
// byte-identical results (scheduling order never affects payloads; see
// the per-shard derived-seed design).

package service

import (
	"math"
	"net/http"
	"strconv"

	"zen2ee/internal/tenant"
)

// authenticate resolves a submission to its tenant; nil (with the 401
// already written) means the request carried no usable credential.
func (s *Server) authenticate(w http.ResponseWriter, r *http.Request) *tenant.Tenant {
	if s.tenants == nil {
		return s.fallback
	}
	tn, err := s.tenants.Authenticate(r)
	if err != nil {
		s.metrics.add(&s.metrics.authRejects, 1)
		w.Header().Set("WWW-Authenticate", `Bearer realm="zen2eed"`)
		writeError(w, http.StatusUnauthorized, "%v", err)
		return nil
	}
	return tn
}

// writeRejection renders a tenant admission rejection: 429 with a
// Retry-After hint in whole seconds (rounded up — "0" would invite an
// immediate retry of a request just rejected for rate).
func writeRejection(w http.ResponseWriter, rej *tenant.Rejection) {
	if rej.RetryAfter > 0 {
		secs := int64(math.Ceil(rej.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeError(w, http.StatusTooManyRequests, "%s", rej.Message)
}

// handleTenants lists every configured tenant's policy and live usage.
// Like /v1/workers, the route answers precisely when the subsystem is
// disabled instead of a generic 404.
func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	if s.tenants == nil {
		writeError(w, http.StatusNotFound,
			"multi-tenancy disabled; start the daemon with -tenant-config")
		return
	}
	tenants := s.tenants.Tenants()
	out := make([]tenant.Usage, 0, len(tenants))
	for _, tn := range tenants {
		out = append(out, tn.Usage())
	}
	writeJSON(w, http.StatusOK, out)
}

// tenantUsages snapshots the registry for the metrics scrape; nil when
// tenancy is disabled (the series are gated off entirely).
func (s *Server) tenantUsages() []tenant.Usage {
	if s.tenants == nil {
		return nil
	}
	tenants := s.tenants.Tenants()
	out := make([]tenant.Usage, 0, len(tenants))
	for _, tn := range tenants {
		out = append(out, tn.Usage())
	}
	return out
}
