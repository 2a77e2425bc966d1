package tenant

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"

	"github.com/ucad/ucad/internal/core"
	"github.com/ucad/ucad/internal/serve"
)

// Tenant-layer error codes, extending the serve envelope taxonomy
// (see internal/serve/envelope.go).
const (
	// CodeUnknownTenant is the machine-readable error code a routing
	// miss answers with — distinguishable from a bad payload (plain 400)
	// so a misconfigured frontend shows up as exactly that.
	CodeUnknownTenant = "unknown_tenant"
	// CodeTenantExists rejects creating an id that is already live.
	CodeTenantExists = "tenant_exists"
	// CodeTenantDraining rejects writes to a quiesced tenant (it may
	// come back or be deleted — retry and find out).
	CodeTenantDraining = "tenant_draining"
	// CodeInvalidModel rejects a model upload that fails validation.
	CodeInvalidModel = "invalid_model"
	// CodeNotReplica rejects promoting a process with no unpromoted
	// replica tenants — a refused state change (409), not a retryable
	// fault.
	CodeNotReplica = "not_replica"
)

// TenantHeader routes events whose body carries no tenant field.
const TenantHeader = "X-UCAD-Tenant"

// maxModelUpload bounds a PUT model body (the serialized detector).
const maxModelUpload = 256 << 20

// Handler returns the multi-tenant HTTP surface:
//
//	POST   /v1/events                  ingest, routed per event: body "tenant"
//	                                   field → X-UCAD-Tenant header → ?tenant= → default
//	GET    /v1/tenants                 list tenants (id, model source, stats)
//	POST   /v1/tenants                 create a tenant from a JSON Spec
//	DELETE /v1/tenants/{id}            delete a tenant and its data dir
//	POST   /v1/tenants/{id}/drain      quiesce a tenant (keeps it queryable)
//	PUT    /v1/tenants/{id}/model      hot-replace the tenant's serving model
//	GET    /v1/tenants/{id}/stats      that tenant's serving counters
//	GET    /v1/tenants/{id}/sessions   that tenant's open sessions (/v1/sessions?tenant= works too)
//	GET    /v1/tenants/{id}/alerts     that tenant's alerts (and .../alerts/{aid}/resolve)
//	GET    /v1/alerts, /stats          default-tenant views (?tenant= overrides) —
//	                                   the single-tenant API, unchanged
//	GET    /healthz                    liveness
//	GET    /metrics                    shared Prometheus exposition, tenant-labelled
//
// Every non-2xx response carries the unified error envelope
// {"error":{"code","message","retryable"}}; the tenant layer extends
// the serve taxonomy with unknown_tenant, tenant_exists,
// tenant_draining and invalid_model.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/events", r.handleEvents)
	mux.HandleFunc("GET /v1/tenants", r.handleList)
	mux.HandleFunc("POST /v1/tenants", r.handleCreate)
	mux.HandleFunc("DELETE /v1/tenants/{id}", r.handleDelete)
	mux.HandleFunc("POST /v1/tenants/{id}/drain", r.handleDrain)
	mux.HandleFunc("PUT /v1/tenants/{id}/model", r.handleModelSwap)
	mux.HandleFunc("GET /v1/tenants/{id}/stats", r.handleTenantStats)
	mux.HandleFunc("GET /v1/tenants/{id}/sessions", func(w http.ResponseWriter, req *http.Request) {
		r.handleSessions(w, req.PathValue("id"))
	})
	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, req *http.Request) {
		r.handleSessions(w, req.URL.Query().Get("tenant"))
	})
	mux.HandleFunc("POST /v1/promote", r.handlePromote)
	mux.Handle("/v1/tenants/{id}/alerts", http.HandlerFunc(r.handleTenantScoped))
	mux.Handle("/v1/tenants/{id}/alerts/", http.HandlerFunc(r.handleTenantScoped))
	mux.HandleFunc("GET /v1/alerts", r.delegate)
	mux.HandleFunc("POST /v1/alerts/{aid}/resolve", r.delegate)
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, req *http.Request) {
		t, err := r.Get(req.URL.Query().Get("tenant"))
		if err != nil {
			writeTenantErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, r.tenantStats(t))
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.Handle("GET /metrics", r.hub.Registry.Handler())
	return mux
}

// eventStatus mirrors serve's per-event batch status: the envelope's
// code/retryable pair.
type eventStatus struct {
	Status string `json:"status"` // "accepted" or "rejected"
	// Code is the envelope taxonomy code of the rejection.
	Code string `json:"code,omitempty"`
	// Retryable reports whether resending this exact event can succeed.
	Retryable bool `json:"retryable,omitempty"`
}

// eventsResponse mirrors serve's response shape. The top-level "error"
// key carries the unified envelope object.
type eventsResponse struct {
	Accepted int              `json:"accepted"`
	Err      *serve.ErrorInfo `json:"error,omitempty"`
	Events   []eventStatus    `json:"events,omitempty"`
}

// handleEvents is the routed ingest path. Batches may mix tenants; each
// event resolves independently so one bad tenant id rejects only its
// own events.
func (r *Registry) handleEvents(w http.ResponseWriter, req *http.Request) {
	events, isArray, err := serve.DecodeEvents(req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, eventsResponse{
			Err: serve.Errf(serve.CodeInvalidBody, err.Error(), false),
		})
		return
	}
	// Request-level fallback for events without a body tenant field.
	fallback := req.Header.Get(TenantHeader)
	if fallback == "" {
		fallback = req.URL.Query().Get("tenant")
	}
	route := func(ev serve.Event) error {
		if ev.Tenant == "" {
			ev.Tenant = fallback
		}
		return r.Ingest(ev)
	}
	if !isArray {
		if err := route(events[0]); err != nil {
			writeJSON(w, routedStatusCode(w, err), eventsResponse{Err: tenantErrorInfo(err)})
			return
		}
		writeJSON(w, http.StatusAccepted, eventsResponse{Accepted: 1})
		return
	}
	statuses := make([]eventStatus, len(events))
	accepted := 0
	var firstErr error
	for i, ev := range events {
		err := route(ev)
		if err == nil {
			statuses[i] = eventStatus{Status: "accepted"}
			accepted++
			continue
		}
		info := tenantErrorInfo(err)
		statuses[i] = eventStatus{
			Status: "rejected", Code: info.Code, Retryable: info.Retryable,
		}
		// Backpressure outranks validation errors for the batch status
		// code (same contract as the single-tenant handler): a 503 tells
		// the client the rejected events are retryable.
		if firstErr == nil || (errors.Is(err, serve.ErrBusy) || errors.Is(err, serve.ErrStopped)) &&
			!(errors.Is(firstErr, serve.ErrBusy) || errors.Is(firstErr, serve.ErrStopped)) {
			firstErr = err
		}
	}
	resp := eventsResponse{Accepted: accepted, Events: statuses}
	code := http.StatusAccepted
	if firstErr != nil {
		code = routedStatusCode(w, firstErr)
		resp.Err = tenantErrorInfo(firstErr)
	}
	writeJSON(w, code, resp)
}

// tenantErrorInfo extends serve's envelope classification with the
// tenant lifecycle/routing errors.
func tenantErrorInfo(err error) *serve.ErrorInfo {
	if err == nil {
		return nil
	}
	switch {
	case errors.Is(err, ErrUnknownTenant), errors.Is(err, ErrInvalidID):
		return serve.Errf(CodeUnknownTenant, err.Error(), false)
	case errors.Is(err, ErrDraining):
		return serve.Errf(CodeTenantDraining, err.Error(), true)
	case errors.Is(err, ErrRegistryClosed):
		return serve.Errf(serve.CodeShuttingDown, err.Error(), true)
	case errors.Is(err, ErrTenantExists):
		return serve.Errf(CodeTenantExists, err.Error(), false)
	case errors.Is(err, ErrInvalidModel):
		return serve.Errf(CodeInvalidModel, err.Error(), false)
	case errors.Is(err, serve.ErrNotReplica):
		return serve.Errf(CodeNotReplica, err.Error(), false)
	default:
		return serve.ErrorInfoFor(err)
	}
}

// routedStatusCode extends serve.IngestStatusCode with the routing
// errors: unknown tenant is a structured 404, draining a 503 (the
// tenant may come back or be deleted — retry and find out).
func routedStatusCode(w http.ResponseWriter, err error) int {
	switch {
	case errors.Is(err, ErrUnknownTenant), errors.Is(err, ErrInvalidID):
		return http.StatusNotFound
	case errors.Is(err, ErrDraining), errors.Is(err, ErrRegistryClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrTenantExists), errors.Is(err, serve.ErrNotReplica):
		return http.StatusConflict
	case errors.Is(err, ErrInvalidModel):
		return http.StatusBadRequest
	default:
		return serve.IngestStatusCode(w, err)
	}
}

// Info is the admin-API view of one tenant.
type Info struct {
	ID          string      `json:"id"`
	Model       string      `json:"model,omitempty"` // what the model loaded from
	Dir         string      `json:"dir,omitempty"`
	Draining    bool        `json:"draining,omitempty"`
	Replica     bool        `json:"replica,omitempty"`
	Recovered   int         `json:"recovered_sessions"`
	CleanSeal   bool        `json:"clean_seal"`
	WALReplayed int         `json:"wal_records_replayed"`
	Stats       serve.Stats `json:"stats"`
}

func (t *Tenant) info() Info {
	return Info{
		ID:          t.id,
		Model:       t.modelFrom,
		Dir:         t.dir,
		Draining:    t.Draining(),
		Replica:     t.Replica(),
		Recovered:   t.restore.Sessions,
		CleanSeal:   t.restore.CleanSeal,
		WALReplayed: t.restore.Records,
		Stats:       t.Stats(),
	}
}

func (r *Registry) handleList(w http.ResponseWriter, req *http.Request) {
	ts := r.List()
	out := make([]Info, len(ts))
	for i, t := range ts {
		out[i] = t.info()
	}
	writeJSON(w, http.StatusOK, out)
}

func (r *Registry) handleCreate(w http.ResponseWriter, req *http.Request) {
	var spec Spec
	if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, 1<<20)).Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, serve.ErrorBody{
			Error: serve.Errf(serve.CodeInvalidBody, "invalid tenant spec", false),
		})
		return
	}
	// The admin API never accepts a directory override: Spec.Dir exists
	// for the CLI's legacy single-tenant layout, and honoring it here
	// would let a request point a tenant at an arbitrary path.
	spec.Dir = ""
	t, err := r.Create(spec)
	if err != nil {
		writeTenantErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, t.info())
}

func (r *Registry) handleDelete(w http.ResponseWriter, req *http.Request) {
	if err := r.Delete(req.PathValue("id")); err != nil {
		writeTenantErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
}

func (r *Registry) handleDrain(w http.ResponseWriter, req *http.Request) {
	t, err := r.Drain(req.PathValue("id"))
	if err != nil {
		writeTenantErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, t.info())
}

// handleModelSwap is the hot model replacement path: the uploaded model
// is staged and validated off the ingest path (core.Load proves it
// decodes into a working detector), tuned like any other loaded model,
// then atomically swapped into the tenant's serving pipeline and
// checkpointed. Ingest keeps flowing throughout; a model that fails
// validation answers 400 invalid_model and changes nothing.
func (r *Registry) handleModelSwap(w http.ResponseWriter, req *http.Request) {
	t, err := r.Get(req.PathValue("id"))
	if err != nil {
		writeTenantErr(w, err)
		return
	}
	u, err := core.Load(http.MaxBytesReader(w, req.Body, maxModelUpload))
	if err != nil {
		writeTenantErr(w, errors.Join(ErrInvalidModel, err))
		return
	}
	if r.opts.Tune != nil {
		r.opts.Tune(u)
	}
	if err := t.SwapModel(u); err != nil {
		writeTenantErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, t.info())
}

// tenantStats wraps the serving counters with registry-level context:
// where the tenant sits in the shared fine-tune queue.
type tenantStats struct {
	serve.Stats
	// RetrainQueuePosition is the tenant's place in the weighted-fair
	// retrain queue (0 = idle or retraining now, 1 = next).
	RetrainQueuePosition int `json:"retrain_queue_position"`
}

func (r *Registry) tenantStats(t *Tenant) tenantStats {
	return tenantStats{Stats: t.Stats(), RetrainQueuePosition: r.gate.Position(t.id)}
}

func (r *Registry) handleTenantStats(w http.ResponseWriter, req *http.Request) {
	t, err := r.Get(req.PathValue("id"))
	if err != nil {
		writeTenantErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, r.tenantStats(t))
}

// handleSessions exposes the tenant's open sessions — the observable
// state the failover contract promises is identical on a promoted
// standby and an uninterrupted primary, and the surface the e2e suite
// compares across the two.
func (r *Registry) handleSessions(w http.ResponseWriter, id string) {
	t, err := r.Get(id)
	if err != nil {
		writeTenantErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, t.Service().ExportSessions())
}

// handlePromote flips every replica tenant to serving — the failover
// switch. 409 not_replica when there is nothing to promote (already
// promoted, or this process is a primary).
func (r *Registry) handlePromote(w http.ResponseWriter, req *http.Request) {
	promoted, err := r.Promote()
	if err != nil {
		writeTenantErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"promoted": promoted})
}

// handleTenantScoped rewrites /v1/tenants/{id}/alerts... onto the
// tenant's own cached single-tenant handler, so the per-tenant alert
// surface is exactly the single-tenant one.
func (r *Registry) handleTenantScoped(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	t, err := r.Get(id)
	if err != nil {
		writeTenantErr(w, err)
		return
	}
	rest := strings.TrimPrefix(req.URL.Path, "/v1/tenants/"+id)
	r2 := req.Clone(req.Context())
	r2.URL.Path = "/v1" + rest
	t.handler.Load().h.ServeHTTP(w, r2)
}

// delegate forwards a top-level single-tenant endpoint (alerts) to the
// ?tenant= tenant, defaulting to the default tenant — the unchanged
// single-tenant API.
func (r *Registry) delegate(w http.ResponseWriter, req *http.Request) {
	t, err := r.Get(req.URL.Query().Get("tenant"))
	if err != nil {
		writeTenantErr(w, err)
		return
	}
	t.handler.Load().h.ServeHTTP(w, req)
}

// writeTenantErr renders a lifecycle/routing error as the unified
// envelope with its mapped HTTP status.
func writeTenantErr(w http.ResponseWriter, err error) {
	writeJSON(w, routedStatusCode(w, err), serve.ErrorBody{Error: tenantErrorInfo(err)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
