package serve

import "errors"

// Error envelope. Every non-2xx response across the API carries one
// machine-readable envelope under the top-level "error" key:
//
//	{"error":{"code":"backpressure","message":"...","retryable":true}}
//
// code draws from the closed taxonomy below (internal/tenant adds its
// routing codes on top), message is human-readable and unstable, and
// retryable tells automated senders — the feed deliverer first among
// them — whether resending the identical request can ever succeed.
// Responses that previously carried a top-level "error" string now
// carry this object; per-event statuses inside batch responses carry
// only the code/retryable pair.
const (
	// CodeBackpressure: the shard's scoring queue is full; the event was
	// rolled back and is safe to resend (Retry-After is set).
	CodeBackpressure = "backpressure"
	// CodeShuttingDown: the service is stopping; resend to the
	// replacement instance.
	CodeShuttingDown = "shutting_down"
	// CodeNotReady: a durable service has not finished Restore yet.
	CodeNotReady = "not_ready"
	// CodeInvalidEvent: the event failed validation (e.g. missing sql).
	CodeInvalidEvent = "invalid_event"
	// CodeInvalidBody: the request body was not decodable.
	CodeInvalidBody = "invalid_body"
	// CodeSessionOpen: the alert's session is still open; resolve it
	// after close-out.
	CodeSessionOpen = "session_open"
	// CodeUnknownAlert: no open alert with that id.
	CodeUnknownAlert = "unknown_alert"
	// CodeUnknownVerdict: the resolve verdict was not false_alarm or
	// confirmed.
	CodeUnknownVerdict = "unknown_verdict"
	// CodeInternal: unclassified server-side failure.
	CodeInternal = "internal"
)

// ErrorInfo is the error envelope's payload.
type ErrorInfo struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	Retryable bool   `json:"retryable"`
}

// ErrorBody wraps an ErrorInfo under the top-level "error" key — the
// response shape of every non-2xx endpoint without a richer body.
type ErrorBody struct {
	Error *ErrorInfo `json:"error"`
}

// Errf builds an ErrorInfo in place for handler-local messages.
func Errf(code, message string, retryable bool) *ErrorInfo {
	return &ErrorInfo{Code: code, Message: message, Retryable: retryable}
}

// ErrorInfoFor classifies an ingest/resolve error into the envelope
// taxonomy. Exported for internal/tenant's router, which extends the
// taxonomy with its own routing codes.
func ErrorInfoFor(err error) *ErrorInfo {
	if err == nil {
		return nil
	}
	info := &ErrorInfo{Message: err.Error()}
	switch {
	case errors.Is(err, ErrBusy):
		info.Code, info.Retryable = CodeBackpressure, true
	case errors.Is(err, ErrStopped):
		info.Code, info.Retryable = CodeShuttingDown, true
	case errors.Is(err, ErrNotReady):
		info.Code, info.Retryable = CodeNotReady, true
	case errors.Is(err, ErrInvalid):
		info.Code = CodeInvalidEvent
	case errors.Is(err, ErrSessionOpen):
		info.Code = CodeSessionOpen
	case errors.Is(err, ErrNoAlert):
		info.Code = CodeUnknownAlert
	default:
		info.Code = CodeInternal
	}
	return info
}
