package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestServeHTTPIntegration drives the full pipeline over the wire: 8
// concurrent clients stream 12-operation sessions through POST
// /v1/events, one of them hiding an A1-style confidential read
// mid-session. The alert must appear while that session is still open,
// survive close-out, and resolve through the expert endpoint.
func TestServeHTTPIntegration(t *testing.T) {
	u := testUCAD(t)
	clk := newFakeClock()
	svc := NewService(u, Config{
		Workers:     4,
		QueueSize:   256,
		Batch:       8,
		IdleTimeout: 10 * time.Minute,
		Clock:       clk.Now,
	})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	const clients, opsPerClient, anomalyPos = 8, 12, 6
	attacker := "client-3"

	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := fmt.Sprintf("client-%d", c)
			for pos := 0; pos < opsPerClient; pos++ {
				sql := normalStatement(pos)
				if client == attacker && pos == anomalyPos {
					sql = anomalySQL
				}
				body, _ := json.Marshal(Event{ClientID: client, User: "app", SQL: sql})
				resp, err := http.Post(ts.URL+"/v1/events", "application/json", bytes.NewReader(body))
				if err != nil {
					errc <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					errc <- fmt.Errorf("%s op %d: status %d", client, pos, resp.StatusCode)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	svc.Drain()

	// Health and stats while all 8 sessions are open.
	if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	var st Stats
	getJSON(t, ts.URL+"/stats", &st)
	if st.SessionsOpen != clients {
		t.Fatalf("sessions open = %d, want %d", st.SessionsOpen, clients)
	}
	if st.EventsAccepted != clients*opsPerClient {
		t.Fatalf("events accepted = %d, want %d", st.EventsAccepted, clients*opsPerClient)
	}
	// Every op past MinContext was scored.
	wantScored := int64(clients * (opsPerClient - u.Model.Config().MinContext))
	if st.OpsScored != wantScored {
		t.Fatalf("ops scored = %d, want %d", st.OpsScored, wantScored)
	}

	// The anomaly was flagged MID-SESSION: the alert exists while the
	// attacker's session is still open.
	var alertsResp struct{ Alerts []Alert }
	getJSON(t, ts.URL+"/v1/alerts?status=open", &alertsResp)
	if len(alertsResp.Alerts) != 1 {
		t.Fatalf("open alerts = %+v, want exactly one", alertsResp.Alerts)
	}
	alert := alertsResp.Alerts[0]
	if alert.Client != attacker || alert.Final {
		t.Fatalf("mid-session alert %+v, want open alert for %s", alert, attacker)
	}
	if len(alert.Positions) != 1 || alert.Positions[0] != anomalyPos {
		t.Fatalf("alert positions %v, want [%d]", alert.Positions, anomalyPos)
	}
	if alert.Statements[0] != anomalySQL {
		t.Fatalf("alert statement %q, want %q", alert.Statements[0], anomalySQL)
	}

	// Resolving before the session closes is a conflict.
	if code, _ := post(t, ts.URL, alert.ID, `{"verdict":"confirmed"}`); code != http.StatusConflict {
		t.Fatalf("resolve while open = %d, want 409", code)
	}

	// Idle close-out finalizes the alert; the 7 clean sessions join the
	// verified pool.
	clk.Advance(11 * time.Minute)
	if n := svc.CloseIdleNow(); n != clients {
		t.Fatalf("closed %d sessions, want %d", n, clients)
	}
	getJSON(t, ts.URL+"/stats", &st)
	if st.SessionsFlagged != 1 || st.VerifiedPool != clients-1 {
		t.Fatalf("post-close stats %+v", st)
	}
	getJSON(t, ts.URL+"/v1/alerts", &alertsResp)
	if len(alertsResp.Alerts) != 1 || !alertsResp.Alerts[0].Final {
		t.Fatalf("final alerts %+v", alertsResp.Alerts)
	}

	// Expert confirms the anomaly; the pending queue drains.
	if code, body := post(t, ts.URL, alert.ID, `{"verdict":"confirmed"}`); code != http.StatusOK {
		t.Fatalf("resolve = %d (%s)", code, body)
	}
	if code, _ := post(t, ts.URL, alert.ID, `{"verdict":"confirmed"}`); code != http.StatusNotFound {
		t.Fatal("double resolve must 404")
	}
	if len(svc.Online().Pending()) != 0 {
		t.Fatal("pending queue not drained")
	}
	getJSON(t, ts.URL+"/v1/alerts?status=confirmed", &alertsResp)
	if len(alertsResp.Alerts) != 1 {
		t.Fatalf("confirmed alerts = %d, want 1", len(alertsResp.Alerts))
	}
	svc.Stop()
}

func TestServeHTTPEventArrayAndValidation(t *testing.T) {
	u := testUCAD(t)
	svc := NewService(u, Config{Workers: 1, QueueSize: 64})
	defer svc.Stop()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// A JSON array ingests as a batch.
	events := make([]Event, 5)
	for i := range events {
		events[i] = Event{ClientID: "batch", User: "app", SQL: normalStatement(i)}
	}
	body, _ := json.Marshal(events)
	resp, err := http.Post(ts.URL+"/v1/events", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var er eventsResponse
	json.NewDecoder(resp.Body).Decode(&er)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || er.Accepted != 5 {
		t.Fatalf("batch ingest: %d accepted=%d", resp.StatusCode, er.Accepted)
	}

	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"client_id":"x"}`, http.StatusBadRequest}, // missing sql
		{`not json`, http.StatusBadRequest},
		{``, http.StatusBadRequest},
		{`[{"client_id":"x","sql":"SELECT 1"}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/v1/events", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("body %q: status %d, want %d", tc.body, resp.StatusCode, tc.want)
		}
	}

	if code, _ := get(t, ts.URL+"/v1/alerts?status=bogus"); code != http.StatusBadRequest {
		t.Fatal("bogus status filter must 400")
	}
	if code, _ := post(t, ts.URL, 999, `{"verdict":"confirmed"}`); code != http.StatusNotFound {
		t.Fatal("unknown alert id must 404")
	}
	resp, err = http.Post(ts.URL+"/v1/alerts/abc/resolve", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("non-numeric alert id: %d, want 400", resp.StatusCode)
	}
}

// TestServeHTTPBatchPerEventStatuses checks the batched-submission
// contract: every event in an array is attempted, the response carries
// one status per event in submission order, and the valid events land
// even when the batch also carries rejected ones. Single-object
// submissions keep the legacy response shape.
func TestServeHTTPBatchPerEventStatuses(t *testing.T) {
	u := testUCAD(t)
	svc := NewService(u, Config{Workers: 1, QueueSize: 64})
	defer svc.Stop()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// A mixed batch: two valid events around one with no SQL.
	body := `[{"client_id":"c","user":"app","sql":"SELECT 1"},{"client_id":"c"},{"client_id":"c","user":"app","sql":"SELECT 2"}]`
	resp, err := http.Post(ts.URL+"/v1/events", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var er eventsResponse
	json.NewDecoder(resp.Body).Decode(&er)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mixed batch status = %d, want 400", resp.StatusCode)
	}
	if er.Accepted != 2 || len(er.Events) != 3 {
		t.Fatalf("mixed batch response %+v, want accepted=2 with 3 statuses", er)
	}
	if er.Events[0].Status != "accepted" || er.Events[2].Status != "accepted" {
		t.Fatalf("valid events not accepted: %+v", er.Events)
	}
	if er.Events[1].Status != "rejected" || er.Events[1].Code != CodeInvalidEvent || er.Events[1].Retryable {
		t.Fatalf("invalid event not rejected with its code: %+v", er.Events[1])
	}
	if got := svc.Stats().EventsAccepted; got != 2 {
		t.Fatalf("events accepted = %d, want 2 (rejection must not shadow later events)", got)
	}

	// Single-object shape: legacy response, no per-event list.
	resp, err = http.Post(ts.URL+"/v1/events", "application/json",
		strings.NewReader(`{"client_id":"c","user":"app","sql":"SELECT 3"}`))
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	json.NewDecoder(resp.Body).Decode(&raw)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || string(raw["accepted"]) != "1" {
		t.Fatalf("single object: %d %v", resp.StatusCode, raw)
	}
	if _, ok := raw["events"]; ok {
		t.Fatal("single-object response must not carry a per-event status list")
	}

	// A stopped service rejects the whole batch as retryable: 503 with
	// every event rejected.
	svc.Stop()
	resp, err = http.Post(ts.URL+"/v1/events", "application/json",
		strings.NewReader(`[{"client_id":"c","user":"app","sql":"SELECT 4"}]`))
	if err != nil {
		t.Fatal(err)
	}
	er = eventsResponse{}
	json.NewDecoder(resp.Body).Decode(&er)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stopped batch status = %d, want 503", resp.StatusCode)
	}
	if er.Accepted != 0 || len(er.Events) != 1 || er.Events[0].Status != "rejected" {
		t.Fatalf("stopped batch response %+v", er)
	}
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	code, body := get(t, url)
	if code != http.StatusOK {
		t.Fatalf("GET %s = %d (%s)", url, code, body)
	}
	if err := json.Unmarshal([]byte(body), v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

func post(t *testing.T, base string, id int64, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(fmt.Sprintf("%s/v1/alerts/%d/resolve", base, id), "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}
