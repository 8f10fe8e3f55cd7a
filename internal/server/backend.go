package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sync/atomic"
	"time"

	"svrdb/internal/relation"
)

// Backend is one shard as the Router sees it: the subset of the HTTP API
// the scatter-gather layer needs, expressed over the same JSON DTOs the
// wire uses.  Two implementations exist — EngineBackend calls an in-process
// core.Engine directly, HTTPBackend speaks to a remote svrserve — and the
// Router cannot tell them apart, so a deployment can start with in-process
// shards and split them across machines without touching routing logic.
// The one exception is the change stream, an optional capability only an
// in-process engine has (changeSource).
type Backend interface {
	// Label identifies the shard in health and stats output.
	Label() string
	Search(ctx context.Context, index string, req SearchRequest) (*SearchResponse, error)
	TermStats(ctx context.Context, index, query string) (*TermStatsResponse, error)
	InsertRows(ctx context.Context, table string, rows []map[string]json.RawMessage) error
	Batch(ctx context.Context, ops []BatchOp) (*BatchResponse, error)
	Schema(ctx context.Context, table string) (*SchemaResponse, error)
	// Stats reports the shard's engine counters: the indexes, pool,
	// pagefile and durability sections of the stats body.
	Stats(ctx context.Context) (map[string]any, error)
	// CreateIndex builds a text index on this shard; the router fans it out
	// to every shard so searches can scatter uniformly afterwards.
	CreateIndex(ctx context.Context, req CreateIndexRequest) (*CreateIndexResponse, error)
	// DropIndex removes a text index from this shard.
	DropIndex(ctx context.Context, name string) error
	// CreateTenant registers (or re-quotas) a tenant on this shard and
	// reports it with this shard's usage.
	CreateTenant(ctx context.Context, req CreateTenantRequest) (*TenantStatus, error)
	// Tenants lists the tenants registered on this shard with this shard's
	// usage.
	Tenants(ctx context.Context) ([]TenantStatus, error)
	// Health returns nil when the shard can serve.
	Health(ctx context.Context) error
	Close() error
}

// backendError carries the HTTP status a backend's failure maps to — for
// HTTPBackend, the status the remote shard already chose; for in-process
// failures, the status the engine error maps to.
// resp, when set, is the structured error body to forward verbatim (a
// shard's not_found payload keeps its code/resource/name fields through the
// router).
type backendError struct {
	status int
	msg    string
	resp   *ErrorResponse
}

func (e *backendError) Error() string { return e.msg }

// errUnreachable marks an HTTPBackend request that got no HTTP response at
// all.  It is the one failure that marks a shard down before its next
// health probe: any answer the shard gave, 4xx or 5xx, is that request's
// error only.
var errUnreachable = errors.New("unreachable")

// changeSource is the optional Backend capability behind GET /v1/changes.
// Streaming a table's commits needs the engine's in-process change
// listeners, so only EngineBackend has it.
type changeSource interface {
	// subscribe registers fn for every committed change of table and
	// returns the table's schema and the call that unregisters fn.  fn runs
	// on the engine's commit path and must not block.
	subscribe(table string, fn func(relation.Change)) (relation.Schema, func(), error)
}

// notFoundBackendErr builds the structured 404 for a missing index, table
// or tenant, wrapped as a backendError so writeError forwards its shape.
func notFoundBackendErr(resource, name string, err error) *backendError {
	return &backendError{
		status: http.StatusNotFound,
		msg:    err.Error(),
		resp: &ErrorResponse{
			Error:    err.Error(),
			Code:     "not_found",
			Resource: resource,
			Name:     name,
		},
	}
}

// httpStatusOf maps a backend failure to a response status: a backendError
// keeps its embedded status, anything else goes through the engine-error
// mapping.
func httpStatusOf(err error) int {
	var be *backendError
	if errors.As(err, &be) {
		return be.status
	}
	return statusForEngineErr(err)
}

// --- HTTP backend ----------------------------------------------------------------

// HTTPBackend serves a shard over the single-node HTTP API.  Searches are
// hedged: when a response has not arrived within the hedge threshold a
// second identical request is issued and the first answer wins, trading a
// bounded amount of duplicate read work for immunity to one slow replica
// hiccup (searches are idempotent; writes are never hedged).
type HTTPBackend struct {
	label   string
	baseURL string
	client  *http.Client
	hedge   time.Duration

	hedged   atomic.Uint64
	failures atomic.Uint64
}

// NewHTTPBackend builds a backend for a remote shard at baseURL (e.g.
// "http://127.0.0.1:8081").  hedge <= 0 disables hedged searches.
func NewHTTPBackend(baseURL string, hedge time.Duration) *HTTPBackend {
	return &HTTPBackend{
		label:   baseURL,
		baseURL: trimTrailingSlash(baseURL),
		client:  &http.Client{},
		hedge:   hedge,
	}
}

func trimTrailingSlash(s string) string {
	for len(s) > 0 && s[len(s)-1] == '/' {
		s = s[:len(s)-1]
	}
	return s
}

func (b *HTTPBackend) Label() string { return b.label }

// HedgedSearches reports how many hedge requests this backend has issued.
func (b *HTTPBackend) HedgedSearches() uint64 { return b.hedged.Load() }

// do runs one request and decodes the response; non-2xx bodies become
// backendErrors carrying the remote status.
func (b *HTTPBackend) do(ctx context.Context, method, path string, in, out any) error {
	var body *bytes.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(buf)
	} else {
		body = bytes.NewReader(nil)
	}
	req, err := http.NewRequestWithContext(ctx, method, b.baseURL+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := b.client.Do(req)
	if err != nil {
		b.failures.Add(1)
		return fmt.Errorf("shard %s %w: %w", b.label, errUnreachable, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var er ErrorResponse
		msg := resp.Status
		var structured *ErrorResponse
		if json.NewDecoder(resp.Body).Decode(&er) == nil && er.Error != "" {
			msg = er.Error
			if er.Code != "" {
				// Keep the shard's structured body so the router can forward
				// the same shape it would have produced itself.
				structured = &er
			}
		}
		if resp.StatusCode >= 500 {
			b.failures.Add(1)
		}
		return &backendError{status: resp.StatusCode, msg: fmt.Sprintf("shard %s: %s", b.label, msg), resp: structured}
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("shard %s: decoding response: %w", b.label, err)
	}
	return nil
}

func (b *HTTPBackend) Search(ctx context.Context, index string, req SearchRequest) (*SearchResponse, error) {
	path := "/v1/indexes/" + url.PathEscape(index) + "/search"
	attempt := func() (*SearchResponse, error) {
		var out SearchResponse
		if err := b.do(ctx, http.MethodPost, path, req, &out); err != nil {
			return nil, err
		}
		return &out, nil
	}
	if b.hedge <= 0 {
		return attempt()
	}
	type result struct {
		out *SearchResponse
		err error
	}
	// Buffered so the loser's send never blocks a goroutine after return.
	ch := make(chan result, 2)
	launch := func() {
		out, err := attempt()
		ch <- result{out, err}
	}
	go launch()
	timer := time.NewTimer(b.hedge)
	defer timer.Stop()
	launched, received := 1, 0
	var firstErr error
	for received < launched {
		select {
		case res := <-ch:
			received++
			if res.err == nil {
				return res.out, nil
			}
			if firstErr == nil {
				firstErr = res.err
			}
		case <-timer.C:
			if launched == 1 {
				launched++
				b.hedged.Add(1)
				go launch()
			}
		}
	}
	return nil, firstErr
}

func (b *HTTPBackend) TermStats(ctx context.Context, index, query string) (*TermStatsResponse, error) {
	var out TermStatsResponse
	path := "/v1/indexes/" + url.PathEscape(index) + "/termstats"
	if err := b.do(ctx, http.MethodPost, path, TermStatsRequest{Query: query}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

func (b *HTTPBackend) InsertRows(ctx context.Context, table string, rows []map[string]json.RawMessage) error {
	path := "/v1/tables/" + url.PathEscape(table) + "/rows"
	return b.do(ctx, http.MethodPost, path, InsertRowsRequest{Rows: rows}, nil)
}

func (b *HTTPBackend) Batch(ctx context.Context, ops []BatchOp) (*BatchResponse, error) {
	var out BatchResponse
	if err := b.do(ctx, http.MethodPost, "/v1/batch", BatchRequest{Ops: ops}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

func (b *HTTPBackend) Schema(ctx context.Context, table string) (*SchemaResponse, error) {
	var out SchemaResponse
	path := "/v1/tables/" + url.PathEscape(table) + "/schema"
	if err := b.do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Stats keeps the engine sections of the remote node's stats body; its
// uptime, endpoints, tenants and shard sections describe the node, not the
// shard's data.
func (b *HTTPBackend) Stats(ctx context.Context) (map[string]any, error) {
	var out map[string]any
	if err := b.do(ctx, http.MethodGet, "/v1/stats", nil, &out); err != nil {
		return nil, err
	}
	st := map[string]any{}
	for _, key := range []string{"indexes", "pool", "pagefile", "durability"} {
		if v, ok := out[key]; ok {
			st[key] = v
		}
	}
	return st, nil
}

func (b *HTTPBackend) CreateIndex(ctx context.Context, req CreateIndexRequest) (*CreateIndexResponse, error) {
	var out CreateIndexResponse
	if err := b.do(ctx, http.MethodPost, "/v1/indexes", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

func (b *HTTPBackend) DropIndex(ctx context.Context, name string) error {
	return b.do(ctx, http.MethodDelete, "/v1/indexes/"+url.PathEscape(name), nil, nil)
}

func (b *HTTPBackend) CreateTenant(ctx context.Context, req CreateTenantRequest) (*TenantStatus, error) {
	var out TenantStatus
	if err := b.do(ctx, http.MethodPost, "/v1/tenants", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

func (b *HTTPBackend) Tenants(ctx context.Context) ([]TenantStatus, error) {
	var out struct {
		Tenants []TenantStatus `json:"tenants"`
	}
	if err := b.do(ctx, http.MethodGet, "/v1/tenants", nil, &out); err != nil {
		return nil, err
	}
	return out.Tenants, nil
}

func (b *HTTPBackend) Health(ctx context.Context) error {
	return b.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Close releases idle connections; the remote shard's lifecycle is its own.
func (b *HTTPBackend) Close() error {
	b.client.CloseIdleConnections()
	return nil
}
