package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
)

// Handler returns the HTTP/JSON API over the service:
//
//	POST /v1/events              ingest one event or an array of events
//	                             (arrays get per-event statuses back)
//	GET  /v1/alerts[?status=s]   list alerts (open|false_alarm|confirmed)
//	POST /v1/alerts/{id}/resolve apply an expert verdict
//	GET  /healthz                liveness probe
//	GET  /stats                  serving counters (JSON)
//	GET  /metrics                Prometheus text exposition
//
// Every non-2xx response carries the unified error envelope
// {"error":{"code","message","retryable"}} (see envelope.go). A full
// scoring queue answers 503 with Retry-After — the backpressure
// contract: the rejected events were rolled back and are safe to
// resend.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/events", s.handleEvents)
	mux.HandleFunc("GET /v1/alerts", s.handleAlerts)
	mux.HandleFunc("POST /v1/alerts/{id}/resolve", s.handleResolve)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.Handle("GET /metrics", s.metrics.Registry.Handler())
	return mux
}

// eventStatus is one event's outcome within a batched submission.
type eventStatus struct {
	Status string `json:"status"` // "accepted" or "rejected"
	// Code is the envelope taxonomy code of the rejection (empty when
	// accepted).
	Code string `json:"code,omitempty"`
	// Retryable reports whether resending this exact event can succeed.
	Retryable bool `json:"retryable,omitempty"`
}

// eventsResponse reports how much of a submission was absorbed. Array
// submissions carry one per-event status in submission order, so a
// partially rejected batch tells the client exactly which events to
// resend; single-object submissions keep the original shape (no Events
// list) for backward compatibility. The top-level "error" key carries
// the unified envelope object (it was a bare string before the
// envelope migration — the one intentional break).
type eventsResponse struct {
	Accepted int           `json:"accepted"`
	Err      *ErrorInfo    `json:"error,omitempty"`
	Events   []eventStatus `json:"events,omitempty"`
}

func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	events, isArray, err := DecodeEvents(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, eventsResponse{
			Err: Errf(CodeInvalidBody, err.Error(), false),
		})
		return
	}
	if !isArray {
		if err := s.Ingest(events[0]); err != nil {
			writeJSON(w, IngestStatusCode(w, err), eventsResponse{Err: ErrorInfoFor(err)})
			return
		}
		writeJSON(w, http.StatusAccepted, eventsResponse{Accepted: 1})
		return
	}

	// Batched submission: every event is attempted (a rejection does not
	// shadow the events after it) and reported individually.
	statuses := make([]eventStatus, len(events))
	accepted := 0
	var firstErr error
	for i, ev := range events {
		err := s.Ingest(ev)
		if err == nil {
			statuses[i] = eventStatus{Status: "accepted"}
			accepted++
			continue
		}
		info := ErrorInfoFor(err)
		statuses[i] = eventStatus{
			Status: "rejected", Code: info.Code, Retryable: info.Retryable,
		}
		if firstErr == nil || (errors.Is(err, ErrBusy) || errors.Is(err, ErrStopped)) &&
			!(errors.Is(firstErr, ErrBusy) || errors.Is(firstErr, ErrStopped)) {
			// Backpressure outranks validation errors for the status code:
			// a 503 tells the client the rejected events are retryable.
			firstErr = err
		}
	}
	code := http.StatusAccepted
	resp := eventsResponse{Accepted: accepted, Events: statuses}
	if firstErr != nil {
		code = IngestStatusCode(w, firstErr)
		resp.Err = ErrorInfoFor(firstErr)
	}
	writeJSON(w, code, resp)
}

// IngestStatusCode maps an Ingest error to its HTTP status, setting
// Retry-After on backpressure rejections (the rolled-back events are
// safe to resend). Exported for internal/tenant's router, which reuses
// the single-tenant error contract per routed event.
func IngestStatusCode(w http.ResponseWriter, err error) int {
	switch {
	case errors.Is(err, ErrBusy):
		w.Header().Set("Retry-After", "1")
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrStopped), errors.Is(err, ErrNotReady):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// DecodeEvents accepts either a single JSON event object or an array,
// reporting which shape arrived so the response can mirror it.
// Exported for internal/tenant's router, which decodes once and then
// routes per event.
func DecodeEvents(r *http.Request) (events []Event, isArray bool, err error) {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 8<<20))
	var raw json.RawMessage
	if err := dec.Decode(&raw); err != nil {
		return nil, false, errors.New("invalid JSON body")
	}
	for _, c := range raw {
		switch c {
		case ' ', '\t', '\n', '\r':
			continue
		case '[':
			var events []Event
			if err := json.Unmarshal(raw, &events); err != nil {
				return nil, true, errors.New("invalid event array")
			}
			return events, true, nil
		default:
			var ev Event
			if err := json.Unmarshal(raw, &ev); err != nil {
				return nil, false, errors.New("invalid event object")
			}
			return []Event{ev}, false, nil
		}
	}
	return nil, false, errors.New("empty body")
}

func (s *Service) handleAlerts(w http.ResponseWriter, r *http.Request) {
	status := r.URL.Query().Get("status")
	switch status {
	case "", StatusOpen, StatusFalseAlarm, StatusConfirmed:
	default:
		writeJSON(w, http.StatusBadRequest, ErrorBody{
			Error: Errf(CodeInvalidBody, "unknown status filter", false),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"alerts": s.Alerts(status)})
}

func (s *Service) handleResolve(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorBody{
			Error: Errf(CodeInvalidBody, "invalid alert id", false),
		})
		return
	}
	var body struct {
		Verdict string `json:"verdict"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorBody{
			Error: Errf(CodeInvalidBody, "invalid JSON body", false),
		})
		return
	}
	switch err := s.Resolve(id, body.Verdict); {
	case err == nil:
		writeJSON(w, http.StatusOK, map[string]string{"status": "resolved"})
	case errors.Is(err, ErrNoAlert):
		writeJSON(w, http.StatusNotFound, ErrorBody{
			Error: Errf(CodeUnknownAlert, "no open alert with that id", false),
		})
	case errors.Is(err, ErrSessionOpen):
		writeJSON(w, http.StatusConflict, ErrorBody{
			Error: Errf(CodeSessionOpen, "session still open", false),
		})
	case errors.Is(err, ErrInvalid):
		writeJSON(w, http.StatusBadRequest, ErrorBody{
			Error: Errf(CodeUnknownVerdict, "unknown verdict (use false_alarm or confirmed)", false),
		})
	default:
		writeJSON(w, http.StatusBadRequest, ErrorBody{Error: ErrorInfoFor(err)})
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
