package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"testing"
	"time"

	"svrdb/internal/core"
	"svrdb/internal/relation"
	"svrdb/internal/view"
)

// registerShardSpecs gives every shard engine the named "val" spec that
// POST /v1/indexes resolves (specs hold Go functions and cannot travel in a
// request body, so each shard must know the name).
func registerShardSpecs(shards []*core.Engine) {
	for _, e := range shards {
		e.RegisterSpec("val", view.Spec{Components: []view.Component{view.OwnColumn("Docs", "val")}})
	}
}

// routerHealthz fetches /healthz and returns status string + healthy count.
func routerHealthz(t *testing.T, base string) (string, int) {
	t.Helper()
	var hz struct {
		Status        string `json:"status"`
		HealthyShards int    `json:"healthy_shards"`
	}
	if code := getJSON(t, base+"/healthz", &hz); code != http.StatusOK {
		t.Fatalf("healthz status = %d", code)
	}
	return hz.Status, hz.HealthyShards
}

// TestRouterIndexLifecycleFanOut drives create → query → drop through the
// router: the create lands on every shard engine, routed searches agree
// with the pre-existing index, and the drop removes the index everywhere
// (with the all-shards-missing case collapsing to the structured 404).
func TestRouterIndexLifecycleFanOut(t *testing.T) {
	_, shards := newShardedFixture(t, 40, 3)
	registerShardSpecs(shards)
	_, base := startRouter(t, shards, RouterOptions{})

	status, data := doJSON(t, http.MethodPost, base+"/v1/indexes", CreateIndexRequest{
		Name: "docs2", Table: "Docs", Column: "body", Method: "id", Spec: "val",
	}, nil)
	if status != http.StatusCreated {
		t.Fatalf("routed create status = %d, body %s", status, data)
	}
	for i, e := range shards {
		if _, err := e.TextIndex("docs2"); err != nil {
			t.Errorf("shard %d missing docs2 after routed create: %v", i, err)
		}
	}

	// Both methods are exact over the same score spec, so the scattered
	// top-k through the new index must equal the existing chunk index's.
	want := searchVia(t, base, "docs", SearchRequest{Query: "alpha", K: 20, Disjunctive: true})
	got := searchVia(t, base, "docs2", SearchRequest{Query: "alpha", K: 20, Disjunctive: true})
	if got.Partial || len(got.Hits) == 0 {
		t.Fatalf("routed search on new index: partial=%v hits=%d", got.Partial, len(got.Hits))
	}
	if len(got.Hits) != len(want.Hits) {
		t.Fatalf("docs2 returned %d hits, docs %d", len(got.Hits), len(want.Hits))
	}
	for i := range want.Hits {
		if got.Hits[i].PK != want.Hits[i].PK || got.Hits[i].Score != want.Hits[i].Score {
			t.Errorf("hit %d: docs2 (%d, %v) != docs (%d, %v)", i,
				got.Hits[i].PK, got.Hits[i].Score, want.Hits[i].PK, want.Hits[i].Score)
		}
	}

	// A duplicate create is a 409 from every shard, surfaced as one 409.
	status, data = doJSON(t, http.MethodPost, base+"/v1/indexes", CreateIndexRequest{
		Name: "docs2", Table: "Docs", Column: "body", Spec: "val",
	}, nil)
	if status != http.StatusConflict {
		t.Errorf("duplicate routed create status = %d, want 409 (body %s)", status, data)
	}

	status, data = doJSON(t, http.MethodDelete, base+"/v1/indexes/docs2", nil, nil)
	if status != http.StatusOK {
		t.Fatalf("routed drop status = %d, body %s", status, data)
	}
	var dr DropIndexResponse
	if err := json.Unmarshal(data, &dr); err != nil || dr.Dropped != "docs2" {
		t.Fatalf("routed drop response %s, want dropped docs2", data)
	}
	for i, e := range shards {
		if _, err := e.TextIndex("docs2"); !errors.Is(err, relation.ErrNotFound) {
			t.Errorf("shard %d still has docs2 after routed drop (err %v)", i, err)
		}
	}
	// Every shard now misses → the router's own structured 404.
	status, data = doJSON(t, http.MethodDelete, base+"/v1/indexes/docs2", nil, nil)
	if status != http.StatusNotFound {
		t.Fatalf("double routed drop status = %d, want 404 (body %s)", status, data)
	}
	assertNotFoundShape(t, data, "index", "docs2")
}

// TestRouterStructured404DoesNotMarkShardsDown asserts the unified 404
// contract through in-process backends: a missing index produces the same
// structured body as the single-engine server, and client mistakes (4xx)
// never count against shard health or degrade subsequent searches.
func TestRouterStructured404DoesNotMarkShardsDown(t *testing.T) {
	_, shards := newShardedFixture(t, 30, 2)
	_, base := startRouter(t, shards, RouterOptions{})

	for i := 0; i < 3; i++ {
		status, data := postJSON(t, base+"/v1/indexes/nope/search", SearchRequest{Query: "alpha"})
		if status != http.StatusNotFound {
			t.Fatalf("missing index search status = %d, want 404 (body %s)", status, data)
		}
		assertNotFoundShape(t, data, "index", "nope")
	}

	if st, healthy := routerHealthz(t, base); st != "ok" || healthy != len(shards) {
		t.Errorf("healthz after 404 storm = %q with %d healthy shards, want ok with %d", st, healthy, len(shards))
	}
	if res := searchVia(t, base, "docs", SearchRequest{Query: "alpha", K: 10, Disjunctive: true}); res.Partial || len(res.Hits) == 0 {
		t.Errorf("search after 404 storm: partial=%v hits=%d — a 4xx must not bench a shard", res.Partial, len(res.Hits))
	}
}

// TestRouterLifecycleOverHTTPBackends repeats the 404-shape and lifecycle
// fan-out checks with real HTTP shard servers behind the router, proving a
// shard's structured 404 body survives the extra hop verbatim.
func TestRouterLifecycleOverHTTPBackends(t *testing.T) {
	_, shards := newShardedFixture(t, 30, 2)
	registerShardSpecs(shards)
	backends := make([]Backend, len(shards))
	for i, e := range shards {
		srv := New(e, Options{})
		addr := mustStart(t, srv)
		backends[i] = NewHTTPBackend("http://"+addr, 0)
	}
	rt, err := NewRouter(backends, RouterOptions{Partitioner: "mod"})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := rt.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr
	t.Cleanup(func() {
		// Not t.Context(): it is canceled before cleanups run, and a
		// canceled Shutdown fails on any connection not yet idle.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := rt.Shutdown(ctx); err != nil {
			t.Errorf("router shutdown: %v", err)
		}
	})

	status, data := postJSON(t, base+"/v1/indexes/nope/search", SearchRequest{Query: "alpha"})
	if status != http.StatusNotFound {
		t.Fatalf("missing index over HTTP backends: status = %d (body %s)", status, data)
	}
	assertNotFoundShape(t, data, "index", "nope")

	status, data = doJSON(t, http.MethodPost, base+"/v1/indexes", CreateIndexRequest{
		Name: "docs2", Table: "Docs", Column: "body", Spec: "val",
	}, nil)
	if status != http.StatusCreated {
		t.Fatalf("create over HTTP backends: status = %d (body %s)", status, data)
	}
	for i, e := range shards {
		if _, err := e.TextIndex("docs2"); err != nil {
			t.Errorf("shard %d missing docs2: %v", i, err)
		}
	}
	if res := searchVia(t, base, "docs2", SearchRequest{Query: "alpha", K: 10, Disjunctive: true}); res.Partial || len(res.Hits) == 0 {
		t.Fatalf("search on created index: partial=%v hits=%d", res.Partial, len(res.Hits))
	}
	status, data = doJSON(t, http.MethodDelete, base+"/v1/indexes/docs2", nil, nil)
	if status != http.StatusOK {
		t.Fatalf("drop over HTTP backends: status = %d (body %s)", status, data)
	}
	status, data = doJSON(t, http.MethodDelete, base+"/v1/indexes/docs2", nil, nil)
	if status != http.StatusNotFound {
		t.Fatalf("double drop over HTTP backends: status = %d (body %s)", status, data)
	}
	assertNotFoundShape(t, data, "index", "docs2")

	if st, healthy := routerHealthz(t, base); st != "ok" || healthy != len(shards) {
		t.Errorf("healthz after lifecycle + 404s = %q/%d healthy, want ok/%d", st, healthy, len(shards))
	}
}

// TestRouterCreateTenantFanOut checks a tenant registration reaches every
// shard engine so each meters its slice against the same quota.
func TestRouterCreateTenantFanOut(t *testing.T) {
	_, shards := newShardedFixture(t, 20, 3)
	_, base := startRouter(t, shards, RouterOptions{})

	status, data := doJSON(t, http.MethodPost, base+"/v1/tenants", CreateTenantRequest{
		Name: "acme", MaxRows: 5, MaxBytes: 1 << 20,
	}, nil)
	if status != http.StatusCreated {
		t.Fatalf("routed tenant create status = %d, body %s", status, data)
	}
	for i, e := range shards {
		quota, ok := e.TenantQuotaOf("acme")
		if !ok || quota.MaxRows != 5 || quota.MaxBytes != 1<<20 {
			t.Errorf("shard %d tenant acme = (%+v, %v), want the registered quota", i, quota, ok)
		}
	}
	status, data = doJSON(t, http.MethodPost, base+"/v1/tenants", CreateTenantRequest{Name: "a/b"}, nil)
	if status != http.StatusBadRequest {
		t.Errorf("invalid tenant name over router: status = %d, want 400 (body %s)", status, data)
	}
}

// TestRouterChangesNotImplemented: cross-shard change streams would need
// commit-ordered merging, which scatter-gather does not provide.
func TestRouterChangesNotImplemented(t *testing.T) {
	_, shards := newShardedFixture(t, 10, 2)
	_, base := startRouter(t, shards, RouterOptions{})
	status, data := doJSON(t, http.MethodGet, base+"/v1/changes?table=Docs", nil, nil)
	if status != http.StatusNotImplemented {
		t.Errorf("router changes status = %d, want 501 (body %s)", status, data)
	}
}

// startTenantRouter starts a router over n mod-partitioned shards whose
// engines each hold tenant acme's empty "acme/Notes" table and the
// "acme-val" spec over it (tables and specs are created out of band, like
// any deployment-provided schema).
func startTenantRouter(t *testing.T, n int) ([]*core.Engine, string) {
	t.Helper()
	_, shards := newShardedFixture(t, 20, n)
	for _, e := range shards {
		if _, err := e.DB().CreateTable(relation.Schema{
			Name: "acme/Notes",
			Columns: []relation.Column{
				{Name: "id", Kind: relation.KindInt64},
				{Name: "body", Kind: relation.KindString},
				{Name: "val", Kind: relation.KindFloat64},
			},
		}); err != nil {
			t.Fatal(err)
		}
		e.RegisterSpec("acme-val", view.Spec{Components: []view.Component{view.OwnColumn("acme/Notes", "val")}})
	}
	_, base := startRouter(t, shards, RouterOptions{})
	return shards, base
}

// noteRows are tenant acme's notes 1..n.
func noteRows(n int) []map[string]any {
	rows := make([]map[string]any, n)
	for i := range rows {
		rows[i] = map[string]any{"id": i + 1, "body": "tenant note", "val": 10 * (i + 1)}
	}
	return rows
}

// insertNotes inserts tenant acme's notes 1..n through the router's batch
// endpoint, naming the qualified table.
func insertNotes(t *testing.T, base string, n int) {
	t.Helper()
	ops := make([]map[string]any, n)
	for i, row := range noteRows(n) {
		ops[i] = map[string]any{"op": "insert", "table": "acme/Notes", "row": row}
	}
	if status, data := postJSON(t, base+"/v1/batch", map[string]any{"ops": ops}); status != http.StatusOK {
		t.Fatalf("tenant insert status = %d, body %s", status, data)
	}
}

// TestRouterTenantNamespace checks that X-SVR-Tenant namespaces every
// routed request, as it does on a single node: index creation, rows,
// schema, termstats, search and batch all reach the tenant's "acme/"
// table and index.
func TestRouterTenantNamespace(t *testing.T) {
	shards, base := startTenantRouter(t, 2)
	acme := map[string]string{"X-SVR-Tenant": "acme"}

	status, data := doJSON(t, http.MethodPost, base+"/v1/indexes", CreateIndexRequest{
		Name: "notes", Table: "Notes", Column: "body", Spec: "acme-val",
	}, acme)
	if status != http.StatusCreated {
		t.Fatalf("tenant index create status = %d, body %s", status, data)
	}
	status, data = doJSON(t, http.MethodPost, base+"/v1/tables/Notes/rows", map[string]any{"rows": noteRows(6)}, acme)
	if status != http.StatusOK {
		t.Fatalf("tenant insert status = %d, body %s", status, data)
	}
	for id := int64(1); id <= 6; id++ {
		tbl, err := shards[id%2].DB().Table("acme/Notes")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tbl.Get(id); err != nil {
			t.Errorf("note %d missing from its owning shard's acme/Notes: %v", id, err)
		}
	}

	var schema SchemaResponse
	status, data = doJSON(t, http.MethodGet, base+"/v1/tables/Notes/schema", nil, acme)
	if err := json.Unmarshal(data, &schema); status != http.StatusOK || err != nil || schema.Table != "acme/Notes" {
		t.Fatalf("tenant schema: status %d body %s, want acme/Notes", status, data)
	}
	var ts TermStatsResponse
	status, data = doJSON(t, http.MethodPost, base+"/v1/indexes/notes/termstats", TermStatsRequest{Query: "note"}, acme)
	if err := json.Unmarshal(data, &ts); status != http.StatusOK || err != nil || ts.NumDocs != 6 {
		t.Fatalf("tenant termstats: status %d body %s, want num_docs 6", status, data)
	}

	search := func() SearchResponse {
		t.Helper()
		status, data := doJSON(t, http.MethodPost, base+"/v1/indexes/notes/search", SearchRequest{Query: "note", K: 10}, acme)
		if status != http.StatusOK {
			t.Fatalf("tenant search status = %d, body %s", status, data)
		}
		var sr SearchResponse
		if err := json.Unmarshal(data, &sr); err != nil {
			t.Fatal(err)
		}
		return sr
	}
	if res := search(); len(res.Hits) != 6 || res.Hits[0].PK != 6 {
		t.Fatalf("tenant search = %+v, want all 6 notes with note 6 first", res.Hits)
	}

	pk1, pk2 := int64(1), int64(2)
	status, data = doJSON(t, http.MethodPost, base+"/v1/batch", BatchRequest{Ops: []BatchOp{
		{Op: "update", Table: "Notes", PK: &pk1, Set: map[string]json.RawMessage{"val": json.RawMessage("1000")}},
		{Op: "delete", Table: "Notes", PK: &pk2},
	}}, acme)
	if status != http.StatusOK {
		t.Fatalf("tenant batch status = %d, body %s", status, data)
	}
	if res := search(); len(res.Hits) != 5 || res.Hits[0].PK != 1 || res.Hits[0].Score != 1000 {
		t.Fatalf("tenant search after batch = %+v, want 5 notes with note 1 first at 1000", res.Hits)
	}
}

// TestRouterListTenantsSumsShards checks GET /v1/tenants on a router: each
// tenant's usage is the sum of every shard's slice, under the quota every
// shard shares, and the stats tenants section agrees.
func TestRouterListTenantsSumsShards(t *testing.T) {
	shards, base := startTenantRouter(t, 2)
	if status, data := doJSON(t, http.MethodPost, base+"/v1/tenants", CreateTenantRequest{Name: "acme", MaxRows: 10}, nil); status != http.StatusCreated {
		t.Fatalf("create tenant status = %d, body %s", status, data)
	}
	insertNotes(t, base, 5)
	var wantBytes int64
	for i, e := range shards {
		usage := e.TenantUsageOf("acme")
		if usage.Rows == 0 {
			t.Fatalf("shard %d holds none of the tenant's rows; the sum would prove nothing", i)
		}
		wantBytes += usage.Bytes
	}

	var list struct {
		Tenants []TenantStatus `json:"tenants"`
	}
	if status := getJSON(t, base+"/v1/tenants", &list); status != http.StatusOK {
		t.Fatalf("list tenants status = %d", status)
	}
	want := TenantStatus{Name: "acme", MaxRows: 10, Rows: 5, Bytes: wantBytes}
	if len(list.Tenants) != 1 || list.Tenants[0] != want {
		t.Fatalf("tenant list = %+v, want [%+v]", list.Tenants, want)
	}

	var stats struct {
		Tenants []TenantStatus `json:"tenants"`
	}
	if status := getJSON(t, base+"/v1/stats", &stats); status != http.StatusOK {
		t.Fatalf("stats status = %d", status)
	}
	if len(stats.Tenants) != 1 || stats.Tenants[0] != want {
		t.Fatalf("stats tenants = %+v, want [%+v]", stats.Tenants, want)
	}
}

// TestRouterCreateTenantReturnsStatus checks that POST /v1/tenants through
// a router replies with the TenantStatus a single node sends: the quota
// and the usage summed over the shards.
func TestRouterCreateTenantReturnsStatus(t *testing.T) {
	_, base := startTenantRouter(t, 2)
	create := func(req CreateTenantRequest) TenantStatus {
		t.Helper()
		status, data := doJSON(t, http.MethodPost, base+"/v1/tenants", req, nil)
		if status != http.StatusCreated {
			t.Fatalf("create tenant status = %d, body %s", status, data)
		}
		var st TenantStatus
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	if st := create(CreateTenantRequest{Name: "acme", MaxRows: 10, MaxBytes: 1 << 20}); st != (TenantStatus{Name: "acme", MaxRows: 10, MaxBytes: 1 << 20}) {
		t.Fatalf("create tenant reply = %+v, want acme with its quota and no usage", st)
	}
	insertNotes(t, base, 5)
	// Re-creating replaces the quota and reports the live usage.
	if st := create(CreateTenantRequest{Name: "acme", MaxRows: 20}); st.MaxRows != 20 || st.MaxBytes != 0 || st.Rows != 5 || st.Bytes == 0 {
		t.Fatalf("re-create tenant reply = %+v, want max_rows 20 and the 5 rows summed over shards", st)
	}
}

// TestRouterCreateIndexCanonicalMethod checks that POST /v1/indexes through
// a router names the method canonically, as a single node does.
func TestRouterCreateIndexCanonicalMethod(t *testing.T) {
	_, shards := newShardedFixture(t, 20, 2)
	registerShardSpecs(shards)
	_, base := startRouter(t, shards, RouterOptions{})
	for method, want := range map[string]string{"id": "ID", "": "Chunk", "score-threshold": "Score-Threshold"} {
		name := "docs_" + want
		status, data := doJSON(t, http.MethodPost, base+"/v1/indexes", CreateIndexRequest{
			Name: name, Table: "Docs", Column: "body", Method: method, Spec: "val",
		}, nil)
		if status != http.StatusCreated {
			t.Fatalf("create %q status = %d, body %s", method, status, data)
		}
		var cr CreateIndexResponse
		if err := json.Unmarshal(data, &cr); err != nil {
			t.Fatal(err)
		}
		if cr != (CreateIndexResponse{Name: name, Table: "Docs", Column: "body", Method: want}) {
			t.Errorf("create %q reply = %+v, want method %q", method, cr, want)
		}
	}
}
