package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestErrorInfoFor pins the sentinel-error → envelope taxonomy: every
// ingest/resolve failure mode maps to a stable machine-readable code,
// and only the transient ones are marked retryable.
func TestErrorInfoFor(t *testing.T) {
	for _, tc := range []struct {
		err       error
		code      string
		retryable bool
	}{
		{ErrBusy, CodeBackpressure, true},
		{ErrStopped, CodeShuttingDown, true},
		{ErrNotReady, CodeNotReady, true},
		{ErrInvalid, CodeInvalidEvent, false},
		{ErrSessionOpen, CodeSessionOpen, false},
		{ErrNoAlert, CodeUnknownAlert, false},
		{errors.New("disk on fire"), CodeInternal, false},
		{fmt.Errorf("wrapped: %w", ErrBusy), CodeBackpressure, true},
	} {
		info := ErrorInfoFor(tc.err)
		if info.Code != tc.code || info.Retryable != tc.retryable {
			t.Errorf("ErrorInfoFor(%v) = {%s retryable=%v}, want {%s retryable=%v}",
				tc.err, info.Code, info.Retryable, tc.code, tc.retryable)
		}
		if info.Message == "" {
			t.Errorf("ErrorInfoFor(%v): empty message", tc.err)
		}
	}
	// Backpressure additionally sets Retry-After on the wire.
	rec := httptest.NewRecorder()
	if code := IngestStatusCode(rec, ErrBusy); code != http.StatusServiceUnavailable {
		t.Fatalf("IngestStatusCode(ErrBusy) = %d", code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("backpressure response missing Retry-After")
	}
}

// envelopeOf decodes the unified {"error":{...}} envelope out of a
// response body, failing the test when it is absent or malformed.
func envelopeOf(t *testing.T, body string) ErrorInfo {
	t.Helper()
	var eb struct {
		Error *ErrorInfo `json:"error"`
	}
	if err := json.Unmarshal([]byte(body), &eb); err != nil || eb.Error == nil {
		t.Fatalf("response carries no error envelope: %q (err=%v)", body, err)
	}
	if eb.Error.Code == "" || eb.Error.Message == "" {
		t.Fatalf("incomplete envelope in %q", body)
	}
	return *eb.Error
}

// TestEnvelopeGoldenEndpoints walks every serve endpoint's failure
// modes and asserts each non-2xx response carries the unified envelope
// with the documented code and retryable bit.
func TestEnvelopeGoldenEndpoints(t *testing.T) {
	u := testUCAD(t)
	clk := newFakeClock()
	svc := NewService(u, Config{Workers: 2, QueueSize: 256, IdleTimeout: 10 * time.Minute, Clock: clk.Now})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	check := func(method, path, body string, wantStatus int, wantCode string, wantRetryable bool) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw := new(strings.Builder)
		dec := json.NewDecoder(resp.Body)
		var v json.RawMessage
		if err := dec.Decode(&v); err == nil {
			raw.Write(v)
		}
		resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("%s %s: status %d, want %d (%s)", method, path, resp.StatusCode, wantStatus, raw)
		}
		env := envelopeOf(t, raw.String())
		if env.Code != wantCode || env.Retryable != wantRetryable {
			t.Fatalf("%s %s: envelope {%s retryable=%v}, want {%s retryable=%v}",
				method, path, env.Code, env.Retryable, wantCode, wantRetryable)
		}
	}

	// POST /v1/events — body-level and event-level rejections.
	check("POST", "/v1/events", `not json`, http.StatusBadRequest, CodeInvalidBody, false)
	check("POST", "/v1/events", `{"client_id":"x"}`, http.StatusBadRequest, CodeInvalidEvent, false)
	check("POST", "/v1/events", `[{"client_id":"x"}]`, http.StatusBadRequest, CodeInvalidEvent, false)

	// GET /v1/alerts — bad filter.
	check("GET", "/v1/alerts?status=bogus", "", http.StatusBadRequest, CodeInvalidBody, false)

	// POST /v1/alerts/{id}/resolve — malformed id, unknown id.
	check("POST", "/v1/alerts/abc/resolve", `{}`, http.StatusBadRequest, CodeInvalidBody, false)
	check("POST", "/v1/alerts/999/resolve", `{"verdict":"confirmed"}`, http.StatusNotFound, CodeUnknownAlert, false)

	// Raise a real alert to drive the session_open / unknown_verdict /
	// unknown_alert sequence.
	for pos := 0; pos < 12; pos++ {
		sql := normalStatement(pos)
		if pos == 6 {
			sql = anomalySQL
		}
		if err := svc.Ingest(Event{ClientID: "attacker", User: "app", SQL: sql}); err != nil {
			t.Fatal(err)
		}
	}
	svc.Drain()
	alerts := svc.Alerts(StatusOpen)
	if len(alerts) != 1 {
		t.Fatalf("open alerts = %d, want 1", len(alerts))
	}
	id := alerts[0].ID
	resolve := fmt.Sprintf("/v1/alerts/%d/resolve", id)

	check("POST", resolve, `{"verdict":"confirmed"}`, http.StatusConflict, CodeSessionOpen, false)
	clk.Advance(11 * time.Minute)
	svc.CloseIdleNow()
	check("POST", resolve, `{"verdict":"maybe"}`, http.StatusBadRequest, CodeUnknownVerdict, false)
	if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	resp, err := http.Post(ts.URL+resolve, "application/json", strings.NewReader(`{"verdict":"confirmed"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resolve = %d", resp.StatusCode)
	}
	check("POST", resolve, `{"verdict":"confirmed"}`, http.StatusNotFound, CodeUnknownAlert, false)

	// Shutdown: every further ingest is a retryable shutting_down.
	svc.Stop()
	check("POST", "/v1/events", `{"client_id":"x","user":"u","sql":"SELECT 1"}`, http.StatusServiceUnavailable, CodeShuttingDown, true)
	// Batch shape: the envelope rides the batch response alongside the
	// per-event codes.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/events", strings.NewReader(`[{"client_id":"x","user":"u","sql":"SELECT 1"}]`))
	req.Header.Set("Content-Type", "application/json")
	bresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(bresp.Body)
	bresp.Body.Close()
	var er eventsResponse
	json.Unmarshal(raw, &er)
	if bresp.StatusCode != http.StatusServiceUnavailable || er.Err == nil || er.Err.Code != CodeShuttingDown || !er.Err.Retryable {
		t.Fatalf("stopped batch envelope: %d %+v", bresp.StatusCode, er.Err)
	}
	if len(er.Events) != 1 || er.Events[0].Code != CodeShuttingDown || !er.Events[0].Retryable {
		t.Fatalf("stopped batch per-event status: %+v", er.Events)
	}
	// The per-event legacy "error" string is gone: "error" is only ever
	// the top-level envelope object.
	if strings.Contains(string(raw), `"error":"`) {
		t.Fatalf("batch response still carries a legacy error string: %s", raw)
	}
}

// TestEnvelopeNotReady: a durable service answers retryable not_ready
// until Restore has replayed its WAL shards.
func TestEnvelopeNotReady(t *testing.T) {
	u := testUCAD(t)
	dir := t.TempDir()
	svc := NewService(u, Config{Workers: 1, Durability: &DurabilityConfig{Dir: dir}})
	defer svc.Stop()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/events", "application/json",
		strings.NewReader(`{"client_id":"x","user":"u","sql":"SELECT 1"}`))
	if err != nil {
		t.Fatal(err)
	}
	var er eventsResponse
	json.NewDecoder(resp.Body).Decode(&er)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || er.Err == nil ||
		er.Err.Code != CodeNotReady || !er.Err.Retryable {
		t.Fatalf("pre-Restore ingest: %d %+v", resp.StatusCode, er.Err)
	}
}
