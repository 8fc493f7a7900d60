// HTTP surface of the worker protocol: five POST routes under /dist/v1/,
// JSON in and out, with the coordinator's sentinel errors mapped onto
// status codes the worker client branches on (404 unknown_worker →
// re-register, 410 stale_lease → drop the result). Its one host is the
// standalone listener `zen2ee run|sweep -listen-workers ADDR` opens; the
// zen2eed daemon mounts no coordinator.

package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"
)

// maxBodyBytes bounds request bodies; completions carry gob outputs, which
// for every registered experiment are far below this.
const maxBodyBytes = 16 << 20

// Handler serves the worker protocol.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /dist/v1/register", c.handleRegister)
	mux.HandleFunc("POST /dist/v1/lease", c.handleLease)
	mux.HandleFunc("POST /dist/v1/complete", c.handleComplete)
	mux.HandleFunc("POST /dist/v1/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /dist/v1/deregister", c.handleDeregister)
	return mux
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeDistError(w, http.StatusRequestEntityTooLarge, "",
				fmt.Sprintf("request body exceeds the %d-byte limit", tooLarge.Limit))
			return false
		}
		writeDistError(w, http.StatusBadRequest, "", fmt.Sprintf("decoding request: %v", err))
		return false
	}
	return true
}

func writeDistJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeDistError(w http.ResponseWriter, status int, code, msg string) {
	writeDistJSON(w, status, errorResponse{Error: msg, Code: code})
}

// writeProtoError maps coordinator sentinel errors onto wire codes.
func writeProtoError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errUnknownWorker):
		writeDistError(w, http.StatusNotFound, codeUnknownWorker, err.Error())
	case errors.Is(err, errStaleLease):
		writeDistError(w, http.StatusGone, codeStaleLease, err.Error())
	default:
		writeDistError(w, http.StatusInternalServerError, "", err.Error())
	}
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if !decodeBody(w, r, &req) {
		return
	}
	writeDistJSON(w, http.StatusOK, c.register(req))
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if !decodeBody(w, r, &req) {
		return
	}
	specs, err := c.lease(r.Context(), req.WorkerID, time.Duration(req.WaitMillis)*time.Millisecond)
	if err != nil {
		writeProtoError(w, err)
		return
	}
	writeDistJSON(w, http.StatusOK, leaseResponse{Tasks: specs})
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req completeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := c.complete(req); err != nil {
		writeProtoError(w, err)
		return
	}
	writeDistJSON(w, http.StatusOK, struct{}{})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := c.heartbeat(req.WorkerID); err != nil {
		writeProtoError(w, err)
		return
	}
	writeDistJSON(w, http.StatusOK, struct{}{})
}

func (c *Coordinator) handleDeregister(w http.ResponseWriter, r *http.Request) {
	var req deregisterRequest
	if !decodeBody(w, r, &req) {
		return
	}
	c.deregister(req.WorkerID)
	writeDistJSON(w, http.StatusOK, struct{}{})
}
