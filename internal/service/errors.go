package service

import (
	"log/slog"
	"net/http"

	"datacache/internal/obs"
)

// Every /v1/* route reports failures with the same machine-readable
// envelope:
//
//	{"error": {"code": "not_found", "message": "...", "request_id": "..."}}
//
// The code is one of the ErrCode constants below; clients switch on it
// rather than parsing messages. client.APIError decodes the envelope back
// into a Go error.

// ErrCode is a machine-readable error class carried in the envelope.
type ErrCode string

// The error codes every route draws from.
const (
	CodeBadRequest       ErrCode = "bad_request"        // malformed body or invalid parameters (400)
	CodeNotFound         ErrCode = "not_found"          // unknown id, route or operation (404)
	CodeMethodNotAllowed ErrCode = "method_not_allowed" // wrong HTTP verb (405)
	CodeConflict         ErrCode = "conflict"           // operation against a closed session (409)
	CodeOverloaded       ErrCode = "overloaded"         // per-session inflight budget exceeded (429)
	CodeCanceled         ErrCode = "canceled"           // client disconnected mid-operation (499)
	CodeInternal         ErrCode = "internal"           // server-side failure (500)
)

// StatusClientClosedRequest is the non-standard (nginx-convention) status
// reported when a client disconnects while its request waits on a session
// lock. Nothing is usually listening anymore; the code exists for the
// request log and metrics.
const StatusClientClosedRequest = 499

// codeForStatus maps an HTTP status to its default envelope code.
func codeForStatus(status int) ErrCode {
	switch status {
	case http.StatusBadRequest:
		return CodeBadRequest
	case http.StatusNotFound:
		return CodeNotFound
	case http.StatusMethodNotAllowed:
		return CodeMethodNotAllowed
	case http.StatusConflict:
		return CodeConflict
	case http.StatusTooManyRequests:
		return CodeOverloaded
	case StatusClientClosedRequest:
		return CodeCanceled
	default:
		return CodeInternal
	}
}

// ErrorDetail is the envelope payload.
type ErrorDetail struct {
	Code      ErrCode `json:"code"`
	Message   string  `json:"message"`
	RequestID string  `json:"request_id"`
}

// ErrorBody is the uniform JSON error reply of every route.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// httpError replies with the error envelope, deriving the code from the
// status, and logs the failure (client errors at WARN, server errors at
// ERROR).
func (s *Server) httpError(w http.ResponseWriter, r *http.Request, status int, err error) {
	s.httpErrorCode(w, r, status, codeForStatus(status), err)
}

// httpErrorCode is httpError with an explicit envelope code for statuses
// whose default mapping is too coarse.
func (s *Server) httpErrorCode(w http.ResponseWriter, r *http.Request, status int, code ErrCode, err error) {
	id := obs.RequestIDFrom(r.Context())
	level := slog.LevelWarn
	if status >= http.StatusInternalServerError {
		level = slog.LevelError
	}
	s.log.LogAttrs(r.Context(), level, "request error",
		slog.String("id", id),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", status),
		slog.String("code", string(code)),
		slog.String("error", err.Error()),
	)
	s.writeJSON(w, r, status, ErrorBody{Error: ErrorDetail{Code: code, Message: err.Error(), RequestID: id}})
}
