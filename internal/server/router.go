package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"svrdb/internal/core"
	"svrdb/internal/relation"
	"svrdb/internal/topk"
)

// Router is the HTTP front end: it serves the JSON API over a set of shard
// backends, and a single node is a Router over one in-process engine (see
// New).  Writes are routed: each row lives on exactly one shard, chosen by
// a partitioner over the row's routing key.  Searches scatter to every
// healthy shard and gather through the same top-k merge discipline the
// engine uses internally, with one extra wrinkle for TF-IDF: document
// frequencies are collected from all shards first and the summed totals are
// pinned into each shard's request, so sharded ranking is byte-identical to
// a single engine holding all the data (TestRouterShardedEquivalence).
//
// Availability beats completeness on the read path: a dead shard removes
// its documents from the result and sets "partial": true, it does not fail
// the search.  The write path is the opposite — a write for a dead shard's
// key fails loudly, because silently rerouting it would strand the row
// where reads will never look.
type Router struct {
	backends []Backend
	part     core.Partitioner
	opts     RouterOptions
	metrics  *Registry
	mux      *http.ServeMux

	// health[i] tracks backends[i]; flipped by the prober and by transport
	// failures, read lock-free on every request.
	health []shardHealth

	// stop ends the health prober; wg waits it out during shutdown.
	stop chan struct{}
	wg   sync.WaitGroup

	// draining turns new requests away with 503 while Shutdown waits for
	// in-flight ones; it is the HTTP analogue of the engine's close fence.
	draining atomic.Bool
	// inflightN counts requests inside the fence, so Shutdown can drain
	// them even when the router does not own the listener (a caller
	// embedding Handler in its own http.Server) — http.Server.Shutdown
	// only covers the owned-listener path.  A mutex-guarded counter with an
	// idle signal, not a sync.WaitGroup: requests keep arriving (to be
	// 503'd) while the drain waits, and Add racing Wait from zero is
	// documented WaitGroup misuse that can panic.
	inflightMu sync.Mutex
	inflightN  int
	// inflightIdle, when non-nil, is closed by the request that drops the
	// counter to zero; Shutdown installs it to wait for the drain.
	inflightIdle chan struct{}

	httpSrv  *http.Server
	listener net.Listener
	// serveDone closes when the accept loop exits; serveErr (valid after
	// the close) is nil on a clean ErrServerClosed exit.
	serveDone chan struct{}
	serveErr  error

	closeOnce sync.Once
	closeErr  error

	// schemas caches table schemas fetched from shards.  Tables are created
	// at load time and never altered over this API, so the cache cannot go
	// stale within a router's lifetime.
	schemaMu sync.Mutex
	schemas  map[string]*SchemaResponse
}

type shardHealth struct {
	up atomic.Bool
	// errMu guards lastErr, the human-readable reason the shard is down.
	errMu   sync.Mutex
	lastErr string
}

// RouterOptions configures a Router.
type RouterOptions struct {
	// ReadTimeout and WriteTimeout bound request parsing and response
	// writing when the router owns the listener (Start).  Zero means no
	// timeout, matching net/http.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	// ShardTimeout bounds every per-shard sub-request; zero means 10s.  A
	// shard slower than this is treated exactly like a dead one: excluded,
	// result marked partial.
	ShardTimeout time.Duration
	// HealthInterval is the probe period; zero means 500ms.
	HealthInterval time.Duration
	// Partitioner names a partitioner ("hash" or "mod"); empty means the
	// default.  It must match the partitioner the shard data was loaded
	// with.
	Partitioner string
	// RoutingColumns overrides the routing column per table (default: the
	// table's first column, the primary key).  It must match the placement
	// used at load time.
	RoutingColumns map[string]string
}

const (
	defaultShardTimeout   = 10 * time.Second
	defaultHealthInterval = 500 * time.Millisecond
)

// errNoHealthyShards answers a request no shard can serve.
var errNoHealthyShards = &backendError{status: http.StatusServiceUnavailable, msg: "server: no healthy shards"}

// NewRouter builds a router over the given shard backends.  Backend order
// is the shard numbering: backends[i] must hold exactly the keys the
// partitioner maps to shard i of len(backends).
func NewRouter(backends []Backend, opts RouterOptions) (*Router, error) {
	if len(backends) == 0 {
		return nil, errors.New("server: router needs at least one backend")
	}
	part, err := core.PartitionerByName(opts.Partitioner)
	if err != nil {
		return nil, err
	}
	if opts.ShardTimeout <= 0 {
		opts.ShardTimeout = defaultShardTimeout
	}
	if opts.HealthInterval <= 0 {
		opts.HealthInterval = defaultHealthInterval
	}
	rt := &Router{
		backends:  backends,
		part:      part,
		opts:      opts,
		metrics:   NewRegistry(),
		mux:       http.NewServeMux(),
		health:    make([]shardHealth, len(backends)),
		stop:      make(chan struct{}),
		schemas:   map[string]*SchemaResponse{},
		serveDone: make(chan struct{}),
	}
	// Start optimistic: every shard is presumed up until a probe or a
	// request says otherwise, so the first requests after boot are not
	// spuriously partial while the prober warms up.
	for i := range rt.health {
		rt.health[i].up.Store(true)
	}
	rt.routes()
	rt.wg.Add(1)
	go rt.probeLoop()
	return rt, nil
}

// Metrics returns the router's endpoint metrics registry.
func (rt *Router) Metrics() *Registry { return rt.metrics }

// Backends returns the router's shard backends in shard order.
func (rt *Router) Backends() []Backend { return rt.backends }

// parallel runs fn(0), …, fn(n-1) concurrently and waits for all of them.
// The last call runs on the caller's goroutine, so a fan-out to one shard
// starts none.
func parallel(n int, fn func(j int)) {
	if n == 0 {
		return
	}
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for j := 0; j < n-1; j++ {
		go func() {
			defer wg.Done()
			fn(j)
		}()
	}
	fn(n - 1)
	wg.Wait()
}

// firstError returns the first non-nil error of errs.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// --- health ----------------------------------------------------------------------

func (rt *Router) probeLoop() {
	defer rt.wg.Done()
	ticker := time.NewTicker(rt.opts.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-ticker.C:
			rt.probeAll()
		}
	}
}

func (rt *Router) probeAll() {
	ctx, cancel := context.WithTimeout(context.Background(), rt.opts.ShardTimeout)
	defer cancel()
	parallel(len(rt.backends), func(i int) {
		if err := rt.backends[i].Health(ctx); err != nil {
			rt.markDown(i, err)
		} else {
			rt.markUp(i)
		}
	})
}

func (rt *Router) markDown(i int, err error) {
	rt.health[i].up.Store(false)
	rt.health[i].errMu.Lock()
	rt.health[i].lastErr = err.Error()
	rt.health[i].errMu.Unlock()
}

// noteShardErr marks a shard down only when a request to it got no answer
// at all (an HTTPBackend transport failure).  An answer — a 4xx for a
// client mistake, or a 5xx such as an in-process engine's error — is that
// request's error: the shard's health is left to the prober, so one failed
// request never turns the next ones into "no healthy shards" 503s.
func (rt *Router) noteShardErr(i int, err error) {
	if errors.Is(err, errUnreachable) {
		rt.markDown(i, err)
	}
}

func (rt *Router) markUp(i int) {
	rt.health[i].up.Store(true)
	rt.health[i].errMu.Lock()
	rt.health[i].lastErr = ""
	rt.health[i].errMu.Unlock()
}

// healthyShards returns the indices of shards currently believed up.
func (rt *Router) healthyShards() []int {
	idxs := make([]int, 0, len(rt.backends))
	for i := range rt.backends {
		if rt.health[i].up.Load() {
			idxs = append(idxs, i)
		}
	}
	return idxs
}

// --- routes ----------------------------------------------------------------------

// routes installs every endpoint, instrumented with the metrics registry.
func (rt *Router) routes() {
	register := func(pattern string, h http.HandlerFunc) {
		rt.mux.HandleFunc(pattern, rt.metrics.instrument(pattern, h))
	}
	register("GET /healthz", rt.handleHealthz)
	register("GET /v1/stats", rt.handleStats)
	register("GET /v1/tables/{name}/schema", rt.handleSchema)
	register("POST /v1/indexes", rt.handleCreateIndex)
	register("DELETE /v1/indexes/{name}", rt.handleDropIndex)
	register("POST /v1/indexes/{name}/search", rt.handleSearch)
	register("POST /v1/indexes/{name}/termstats", rt.handleTermStats)
	register("POST /v1/tables/{name}/rows", rt.handleInsertRows)
	register("POST /v1/batch", rt.handleBatch)
	register("POST /v1/tenants", rt.handleCreateTenant)
	register("GET /v1/tenants", rt.handleListTenants)
	register("GET /v1/changes", rt.handleChanges)
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	shards := make([]map[string]any, len(rt.backends))
	healthy := 0
	for i, b := range rt.backends {
		up := rt.health[i].up.Load()
		if up {
			healthy++
		}
		entry := map[string]any{"shard": i, "label": b.Label(), "healthy": up}
		rt.health[i].errMu.Lock()
		if rt.health[i].lastErr != "" {
			entry["error"] = rt.health[i].lastErr
		}
		rt.health[i].errMu.Unlock()
		shards[i] = entry
	}
	status := "ok"
	code := http.StatusOK
	switch {
	case healthy == 0:
		// Nothing can be served; tell load balancers to stop sending.
		status = "down"
		code = http.StatusServiceUnavailable
	case healthy < len(rt.backends):
		// Still serving (partial results), but an operator should look.
		status = "degraded"
	}
	writeJSON(w, code, map[string]any{
		"status":         status,
		"uptime_seconds": rt.metrics.Uptime().Seconds(),
		"shards":         shards,
		"healthy_shards": healthy,
	})
}

// handleStats serves one body for every deployment: the engine sections
// (indexes, pool, pagefile, durability) summed over the shards that
// answered, the per-shard breakdown under "shards", the cluster's health,
// per-endpoint metrics, and per-tenant usage with latency.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), rt.opts.ShardTimeout)
	defer cancel()
	perShard := make([]map[string]any, len(rt.backends))
	parallel(len(rt.backends), func(i int) {
		st, err := rt.backends[i].Stats(ctx)
		if err != nil {
			st = map[string]any{"error": err.Error()}
		}
		perShard[i] = st
	})
	body := map[string]any{}
	shards := map[string]any{}
	healthy := 0
	for i, b := range rt.backends {
		if rt.health[i].up.Load() {
			healthy++
		}
		shards[fmt.Sprintf("shard-%d (%s)", i, b.Label())] = perShard[i]
		if _, failed := perShard[i]["error"]; !failed {
			mergeStatsInto(body, perShard[i])
		}
	}
	// The merge summed each shard's compression ratio; the total's ratio is
	// that of the summed bytes.
	indexes, _ := body["indexes"].(map[string]any)
	for _, v := range indexes {
		if ix, ok := v.(map[string]any); ok {
			raw, _ := toFloat(ix["long_list_raw_bytes"])
			stored, _ := toFloat(ix["long_list_bytes"])
			ix["compression_ratio"] = compressionRatio(raw, stored)
		}
	}
	// Per-tenant latency cells live in the same registry under a label
	// prefix; split them into the tenants section so the endpoints list
	// stays per-route.
	endpoints := make([]EndpointSnapshot, 0)
	latencies := map[string]EndpointSnapshot{}
	for _, snap := range rt.metrics.Snapshot() {
		if t, ok := strings.CutPrefix(snap.Route, tenantRoutePrefix); ok {
			latencies[t] = snap
			continue
		}
		endpoints = append(endpoints, snap)
	}
	// A shard that fails to list its tenants is left out of their usage, as
	// its counters are left out of the sums when its stats fail.
	statuses, _ := rt.tenants(ctx)
	tenants := make([]tenantStats, len(statuses))
	for i, st := range statuses {
		tenants[i] = tenantStats{TenantStatus: st}
		if lat, ok := latencies[st.Name]; ok {
			tenants[i].Latency = &lat
		}
	}
	body["uptime_seconds"] = rt.metrics.Uptime().Seconds()
	body["cluster"] = map[string]any{
		"shards":         len(rt.backends),
		"healthy_shards": healthy,
		"partitioner":    rt.part.Name(),
	}
	body["shards"] = shards
	body["endpoints"] = endpoints
	body["tenants"] = tenants
	writeJSON(w, http.StatusOK, body)
}

// tenantStats is one entry of the stats body's tenants section: the
// tenant's status plus the latency of requests carrying its header.
type tenantStats struct {
	TenantStatus
	Latency *EndpointSnapshot `json:"latency,omitempty"`
}

// compressionRatio is raw long-list bytes over stored bytes, 0 when either
// is zero.
func compressionRatio(raw, stored float64) float64 {
	if raw <= 0 || stored <= 0 {
		return 0
	}
	return raw / stored
}

// mergeStatsInto recursively sums src's numeric leaves into dst, so the
// stats body aggregates every per-shard counter map without enumerating the
// schema.  Non-numeric leaves (method names) keep the first shard's value.
func mergeStatsInto(dst, src map[string]any) {
	for key, sv := range src {
		switch sv := sv.(type) {
		case map[string]any:
			sub, ok := dst[key].(map[string]any)
			if !ok {
				sub = map[string]any{}
				dst[key] = sub
			}
			mergeStatsInto(sub, sv)
		default:
			if n, ok := toFloat(sv); ok {
				prev, _ := toFloat(dst[key])
				dst[key] = prev + n
			} else if _, exists := dst[key]; !exists {
				dst[key] = sv
			}
		}
	}
}

// toFloat widens any numeric stats value: in-process payloads carry typed
// ints, HTTP payloads decode to float64 or json.Number.
func toFloat(v any) (float64, bool) {
	switch v := v.(type) {
	case float64:
		return v, true
	case int:
		return float64(v), true
	case int64:
		return float64(v), true
	case uint64:
		return float64(v), true
	case json.Number:
		f, err := v.Float64()
		return f, err == nil
	default:
		return 0, false
	}
}

func (rt *Router) handleSchema(w http.ResponseWriter, r *http.Request) {
	schema, err := rt.tableSchema(r.Context(), qualifyName(r, r.PathValue("name")))
	if err != nil {
		writeError(w, httpStatusOf(err), err)
		return
	}
	writeJSON(w, http.StatusOK, schema)
}

// tableSchema resolves (and caches) a table's schema from the first healthy
// shard; every shard holds the same schema, only different rows.
func (rt *Router) tableSchema(ctx context.Context, table string) (*SchemaResponse, error) {
	rt.schemaMu.Lock()
	cached := rt.schemas[table]
	rt.schemaMu.Unlock()
	if cached != nil {
		return cached, nil
	}
	idxs := rt.healthyShards()
	if len(idxs) == 0 {
		return nil, errNoHealthyShards
	}
	var firstErr error
	for _, i := range idxs {
		schema, err := rt.backends[i].Schema(ctx, table)
		if err == nil {
			rt.schemaMu.Lock()
			rt.schemas[table] = schema
			rt.schemaMu.Unlock()
			return schema, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, firstErr
}

// --- search ----------------------------------------------------------------------

func (rt *Router) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req SearchRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	query, err := normalizeQuery(req.Query, req.Terms)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	k, err := boundSearchK(req.K)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Forward a canonical request: one query string and an explicit k, so
	// every shard tokenizes identically and the merge heap matches theirs.
	req.Query, req.Terms, req.K = query, nil, k
	resp, err := rt.scatterSearch(r.Context(), qualifyName(r, r.PathValue("name")), req)
	if err != nil {
		writeError(w, httpStatusOf(err), err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// scatterSearch fans a search out to every healthy shard and merges the
// top-k.  Correctness leans on two invariants: each document lives on
// exactly one shard, so the global top-k is a subset of the union of local
// top-ks; and when TF-IDF is in play the gather phase pins cluster-wide
// document frequencies into every shard's request, so per-shard scores are
// the scores a single engine would have computed and merging reduces to the
// usual deterministic heap order (score desc, then primary key asc).
func (rt *Router) scatterSearch(ctx context.Context, index string, req SearchRequest) (*SearchResponse, error) {
	idxs := rt.healthyShards()
	if len(idxs) == 0 {
		return nil, errNoHealthyShards
	}
	partial := len(idxs) < len(rt.backends)
	ctx, cancel := context.WithTimeout(ctx, rt.opts.ShardTimeout)
	defer cancel()

	// Gather phase: sum per-shard document frequencies so each shard ranks
	// with collection-global IDF.  Only TF-IDF ranking consults collection
	// statistics, and a scatter to one shard needs no gather either: that
	// shard's local statistics are the global ones.
	if req.WithTermScores && req.Global == nil && len(idxs) > 1 {
		stats, alive, err := rt.gatherTermStats(ctx, idxs, index, req.Query)
		if err != nil {
			return nil, err
		}
		// A shard that cannot answer the gather cannot score consistently
		// either; it is dropped from the scatter too.
		partial = partial || len(alive) < len(idxs)
		idxs = alive
		req.Global = &GlobalStats{NumDocs: stats.NumDocs, DF: stats.DF}
	}

	// Scatter phase.
	results := make([]*SearchResponse, len(idxs))
	errs := make([]error, len(idxs))
	parallel(len(idxs), func(j int) {
		results[j], errs[j] = rt.backends[idxs[j]].Search(ctx, index, req)
	})

	// One shard's top-k is already the answer; a single node pays no merge.
	if len(idxs) == 1 && errs[0] == nil {
		results[0].Partial = results[0].Partial || partial
		return results[0], nil
	}

	// Gather: merge local top-ks through the same heap the engine's own
	// rankers use, so cross-shard ties break identically (score desc, pk
	// asc).  Each pk exists on exactly one shard, so no dedup is needed —
	// byPK only carries each hit's row payload across the heap.
	heap := topk.New(req.K)
	byPK := make(map[int64]SearchHit)
	merged := &SearchResponse{Partial: partial}
	answered := 0
	for j, i := range idxs {
		if errs[j] != nil {
			rt.noteShardErr(i, errs[j])
			merged.Partial = true
			continue
		}
		answered++
		res := results[j]
		merged.PostingsScanned += res.PostingsScanned
		merged.Stopped = merged.Stopped || res.Stopped
		merged.Partial = merged.Partial || res.Partial
		for _, h := range res.Hits {
			if heap.Add(h.PK, h.Score) {
				byPK[h.PK] = h
			}
		}
	}
	if answered == 0 {
		return nil, firstError(errs)
	}
	ranked := heap.Results()
	merged.Hits = make([]SearchHit, len(ranked))
	for i, r := range ranked {
		hit := byPK[r.Doc]
		hit.Score = r.Score
		merged.Hits[i] = hit
	}
	return merged, nil
}

// gatherTermStats sums the term statistics of the shards idxs and returns
// the sum with the shards that answered.  A shard that fails is left out;
// only when none answers is the first failure returned.  Shards that
// analyze the query into different term lists are an error: their sum
// would be garbage.
func (rt *Router) gatherTermStats(ctx context.Context, idxs []int, index, query string) (*TermStatsResponse, []int, error) {
	stats := make([]*TermStatsResponse, len(idxs))
	errs := make([]error, len(idxs))
	parallel(len(idxs), func(j int) {
		stats[j], errs[j] = rt.backends[idxs[j]].TermStats(ctx, index, query)
	})
	total := &TermStatsResponse{}
	var alive []int
	for j, i := range idxs {
		if errs[j] != nil {
			rt.noteShardErr(i, errs[j])
			continue
		}
		if alive == nil {
			total.DF = make([]int64, len(stats[j].DF))
		} else if len(stats[j].DF) != len(total.DF) {
			return nil, nil, fmt.Errorf("server: shard %s analyzed %d terms, others %d (analyzer mismatch?)",
				rt.backends[i].Label(), len(stats[j].DF), len(total.DF))
		}
		total.NumDocs += stats[j].NumDocs
		for t, df := range stats[j].DF {
			total.DF[t] += df
		}
		alive = append(alive, i)
	}
	if alive == nil {
		return nil, nil, firstError(errs)
	}
	return total, alive, nil
}

func (rt *Router) handleTermStats(w http.ResponseWriter, r *http.Request) {
	var req TermStatsRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	query, err := normalizeQuery(req.Query, req.Terms)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	idxs := rt.healthyShards()
	if len(idxs) == 0 {
		writeError(w, http.StatusServiceUnavailable, errNoHealthyShards)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), rt.opts.ShardTimeout)
	defer cancel()
	total, _, err := rt.gatherTermStats(ctx, idxs, qualifyName(r, r.PathValue("name")), query)
	if err != nil {
		writeError(w, httpStatusOf(err), err)
		return
	}
	writeJSON(w, http.StatusOK, total)
}

// --- writes ----------------------------------------------------------------------

// routingColumn resolves which column routes a table's rows: the configured
// override, or the first column (the primary key).
func (rt *Router) routingColumn(schema *SchemaResponse) (string, error) {
	if col, ok := rt.opts.RoutingColumns[schema.Table]; ok {
		for _, c := range schema.Columns {
			if c.Name == col {
				if c.Kind != "int64" {
					return "", &backendError{
						status: http.StatusInternalServerError,
						msg:    fmt.Sprintf("server: routing column %q of table %q is %s, need int64", col, schema.Table, c.Kind),
					}
				}
				return col, nil
			}
		}
		return "", &backendError{
			status: http.StatusInternalServerError,
			msg:    fmt.Sprintf("server: routing column %q not in table %q", col, schema.Table),
		}
	}
	if len(schema.Columns) == 0 {
		return "", &backendError{status: http.StatusInternalServerError, msg: fmt.Sprintf("server: table %q has no columns", schema.Table)}
	}
	return schema.Columns[0].Name, nil
}

// routingKey extracts a row's routing value from its JSON object.
func routingKey(obj map[string]json.RawMessage, col string) (int64, error) {
	raw, ok := obj[col]
	if !ok {
		return 0, fmt.Errorf("missing routing column %q", col)
	}
	var n json.Number
	if err := json.Unmarshal(raw, &n); err != nil {
		return 0, fmt.Errorf("routing column %q: want an integer: %w", col, err)
	}
	v, err := n.Int64()
	if err != nil {
		return 0, fmt.Errorf("routing column %q: want an integer: %w", col, err)
	}
	return v, nil
}

// shardFor returns the owning shard for a routing key, failing if that
// shard is currently down: a write must reach its owner or fail loudly,
// never land elsewhere.
func (rt *Router) shardFor(key int64) (int, error) {
	i := rt.part.Shard(key, len(rt.backends))
	if !rt.health[i].up.Load() {
		return 0, &backendError{
			status: http.StatusServiceUnavailable,
			msg:    fmt.Sprintf("server: shard %d (%s) owning key %d is down", i, rt.backends[i].Label(), key),
		}
	}
	return i, nil
}

// fanOut runs call for every shard in shards in parallel and joins the
// failures, each named by its shard.  There is no cross-shard transaction:
// on failure, writes on the other shards may already be in (the same
// applied-up-to contract as a single engine's batch).
func fanOut(shards []int, call func(shard int) error) error {
	errs := make([]error, len(shards))
	parallel(len(shards), func(j int) {
		if err := call(shards[j]); err != nil {
			errs[j] = fmt.Errorf("shard %d: %w", shards[j], err)
		}
	})
	return errors.Join(errs...)
}

func (rt *Router) handleInsertRows(w http.ResponseWriter, r *http.Request) {
	var req InsertRowsRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Rows) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("\"rows\" must be a non-empty array"))
		return
	}
	table := qualifyName(r, r.PathValue("name"))
	ctx, cancel := context.WithTimeout(r.Context(), rt.opts.ShardTimeout)
	defer cancel()
	schema, err := rt.tableSchema(ctx, table)
	if err != nil {
		writeError(w, httpStatusOf(err), err)
		return
	}
	col, err := rt.routingColumn(schema)
	if err != nil {
		writeError(w, httpStatusOf(err), err)
		return
	}
	perShard := map[int][]map[string]json.RawMessage{}
	for i, obj := range req.Rows {
		key, err := routingKey(obj, col)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("row %d: %w", i, err))
			return
		}
		shard, err := rt.shardFor(key)
		if err != nil {
			writeError(w, httpStatusOf(err), fmt.Errorf("row %d: %w", i, err))
			return
		}
		perShard[shard] = append(perShard[shard], obj)
	}
	if err := fanOut(slices.Sorted(maps.Keys(perShard)), func(shard int) error {
		return rt.backends[shard].InsertRows(ctx, table, perShard[shard])
	}); err != nil {
		writeError(w, httpStatusOf(err), err)
		return
	}
	writeJSON(w, http.StatusOK, InsertRowsResponse{Inserted: len(req.Rows)})
}

func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Ops) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("\"ops\" must be a non-empty array"))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), rt.opts.ShardTimeout)
	defer cancel()
	// Route each op: inserts and pk-routed tables go straight to the owning
	// shard; an update/delete on a table routed by a non-pk column is
	// broadcast to every shard with ignore_missing — only the owner has the
	// row, and the shards' Missed lists verify afterwards that one did.
	// opOf[shard][p] is the request index of perShard[shard][p]; forced
	// marks the ops this router set ignore_missing on, which must still
	// match on some shard.
	perShard := map[int][]BatchOp{}
	opOf := map[int][]int{}
	forced := make([]bool, len(req.Ops))
	for i, op := range req.Ops {
		op.Table = qualifyName(r, op.Table)
		schema, err := rt.tableSchema(ctx, op.Table)
		if err != nil {
			writeError(w, httpStatusOf(err), fmt.Errorf("op %d: %w", i, err))
			return
		}
		col, err := rt.routingColumn(schema)
		if err != nil {
			writeError(w, httpStatusOf(err), fmt.Errorf("op %d: %w", i, err))
			return
		}
		switch op.Op {
		case "insert":
			if op.Row == nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("op %d: insert requires \"row\"", i))
				return
			}
			key, err := routingKey(op.Row, col)
			if err != nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("op %d: %w", i, err))
				return
			}
			shard, err := rt.shardFor(key)
			if err != nil {
				writeError(w, httpStatusOf(err), fmt.Errorf("op %d: %w", i, err))
				return
			}
			perShard[shard] = append(perShard[shard], op)
			opOf[shard] = append(opOf[shard], i)
		case "update", "delete":
			if op.PK == nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("op %d: %s requires \"pk\"", i, op.Op))
				return
			}
			// A pk-routed table names its owner; so does a router over one
			// shard, whatever the routing column.
			if col == schema.Columns[0].Name || len(rt.backends) == 1 {
				shard, err := rt.shardFor(*op.PK)
				if err != nil {
					writeError(w, httpStatusOf(err), fmt.Errorf("op %d: %w", i, err))
					return
				}
				perShard[shard] = append(perShard[shard], op)
				opOf[shard] = append(opOf[shard], i)
				break
			}
			// Routed by a non-pk column the op does not carry: broadcast.
			// An op the client already let miss may miss everywhere.
			if !op.IgnoreMissing {
				op.IgnoreMissing = true
				forced[i] = true
			}
			for shard := range rt.backends {
				if !rt.health[shard].up.Load() {
					writeError(w, http.StatusServiceUnavailable,
						fmt.Errorf("op %d: broadcast needs every shard, shard %d (%s) is down", i, shard, rt.backends[shard].Label()))
					return
				}
				perShard[shard] = append(perShard[shard], op)
				opOf[shard] = append(opOf[shard], i)
			}
		default:
			writeError(w, http.StatusBadRequest, fmt.Errorf("op %d: unknown op %q (want insert, update or delete)", i, op.Op))
			return
		}
	}
	resps := make([]*BatchResponse, len(rt.backends))
	if err := fanOut(slices.Sorted(maps.Keys(perShard)), func(shard int) (err error) {
		resps[shard], err = rt.backends[shard].Batch(ctx, perShard[shard])
		return err
	}); err != nil {
		writeError(w, httpStatusOf(err), err)
		return
	}
	// An op missed when every shard it went to missed it.
	out := BatchResponse{Applied: len(req.Ops)}
	sent := make([]int, len(req.Ops))
	missed := make([]int, len(req.Ops))
	for shard, resp := range resps {
		if resp == nil {
			continue
		}
		out.Matched += resp.Matched
		for _, i := range opOf[shard] {
			sent[i]++
		}
		for _, p := range resp.Missed {
			if p < 0 || p >= len(opOf[shard]) {
				writeError(w, http.StatusBadGateway, fmt.Errorf("shard %d: missed op %d of a %d-op batch", shard, p, len(opOf[shard])))
				return
			}
			missed[opOf[shard][p]]++
		}
	}
	for i := range req.Ops {
		if missed[i] == 0 || missed[i] < sent[i] {
			continue
		}
		// A forced op's row is on no shard at all.  Every shard's batch is
		// in by now, so the error names the op, not where the batch stopped.
		if forced[i] {
			writeError(w, http.StatusNotFound, fmt.Errorf("op %d: row not found on any shard", i))
			return
		}
		out.Missed = append(out.Missed, i)
	}
	writeJSON(w, http.StatusOK, out)
}

// --- index & tenant lifecycle ------------------------------------------------------

// everyShard returns every shard's index, for lifecycle operations that
// fan out to the whole cluster.  It fails unless every shard is currently
// healthy: running one with a shard missing would leave that shard
// permanently inconsistent with the rest (searches scatter to every shard,
// so a shard without the index would fail every query against it).
func (rt *Router) everyShard() ([]int, error) {
	all := make([]int, len(rt.backends))
	for i := range rt.backends {
		if !rt.health[i].up.Load() {
			return nil, &backendError{
				status: http.StatusServiceUnavailable,
				msg: fmt.Sprintf("server: lifecycle operation needs every shard, shard %d (%s) is down",
					i, rt.backends[i].Label()),
			}
		}
		all[i] = i
	}
	return all, nil
}

// handleCreateIndex fans an online index build out to every shard.  Each
// shard backfills from its own slice of the data; searches scattering during
// the build cleanly miss on shards that have not published yet and observe
// the fully backfilled index afterwards.  There is no cross-shard
// transaction: a failed shard leaves the name existing on some shards only,
// and the error names which — re-issuing the create is safe on shards where
// it already exists (409) and completes the rest.
func (rt *Router) handleCreateIndex(w http.ResponseWriter, r *http.Request) {
	var req CreateIndexRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	req.Name = qualifyName(r, req.Name)
	req.Table = qualifyName(r, req.Table)
	all, err := rt.everyShard()
	if err != nil {
		writeError(w, httpStatusOf(err), err)
		return
	}
	// No per-shard timeout here: a backfill over a large shard legitimately
	// takes longer than a search round-trip, so only the client's own
	// context bounds it.
	created := make([]*CreateIndexResponse, len(rt.backends))
	if err := fanOut(all, func(shard int) (err error) {
		created[shard], err = rt.backends[shard].CreateIndex(r.Context(), req)
		return err
	}); err != nil {
		writeError(w, httpStatusOf(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, created[0])
}

// handleDropIndex fans an index drop out to every shard.  A shard that no
// longer has the index reports not_found, which the drop treats as success
// on that shard (drops are idempotent); only if every shard misses is the
// answer 404.
func (rt *Router) handleDropIndex(w http.ResponseWriter, r *http.Request) {
	name := qualifyName(r, r.PathValue("name"))
	all, err := rt.everyShard()
	if err != nil {
		writeError(w, httpStatusOf(err), err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), rt.opts.ShardTimeout)
	defer cancel()
	var missing atomic.Int64
	err = fanOut(all, func(shard int) error {
		err := rt.backends[shard].DropIndex(ctx, name)
		var be *backendError
		if errors.As(err, &be) && be.status == http.StatusNotFound {
			missing.Add(1)
			return nil
		}
		return err
	})
	if err != nil {
		writeError(w, httpStatusOf(err), err)
		return
	}
	if int(missing.Load()) == len(rt.backends) {
		writeError(w, http.StatusNotFound, notFoundBackendErr("index", name, fmt.Errorf("server: no shard has an index named %q", name)))
		return
	}
	writeJSON(w, http.StatusOK, DropIndexResponse{Dropped: name})
}

// handleCreateTenant fans a tenant registration out to every shard, so each
// shard meters its own slice of the tenant's rows against the same quota,
// and replies with the tenant's status summed over the shards.
func (rt *Router) handleCreateTenant(w http.ResponseWriter, r *http.Request) {
	var req CreateTenantRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	all, err := rt.everyShard()
	if err != nil {
		writeError(w, httpStatusOf(err), err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), rt.opts.ShardTimeout)
	defer cancel()
	created := make([][]TenantStatus, len(rt.backends))
	if err := fanOut(all, func(shard int) error {
		st, err := rt.backends[shard].CreateTenant(ctx, req)
		if err == nil {
			created[shard] = []TenantStatus{*st}
		}
		return err
	}); err != nil {
		writeError(w, httpStatusOf(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, sumTenants(created)[0])
}

func (rt *Router) handleListTenants(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), rt.opts.ShardTimeout)
	defer cancel()
	statuses, err := rt.tenants(ctx)
	if err != nil {
		writeError(w, httpStatusOf(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"tenants": statuses})
}

// tenants lists every tenant with its usage summed over the healthy shards.
// On error it still returns the sum over the shards that answered.
func (rt *Router) tenants(ctx context.Context) ([]TenantStatus, error) {
	idxs := rt.healthyShards()
	if len(idxs) == 0 {
		return nil, errNoHealthyShards
	}
	lists := make([][]TenantStatus, len(idxs))
	errs := make([]error, len(idxs))
	parallel(len(idxs), func(j int) {
		lists[j], errs[j] = rt.backends[idxs[j]].Tenants(ctx)
	})
	return sumTenants(lists), errors.Join(errs...)
}

// sumTenants folds per-shard tenant lists into one, sorted by name.  Every
// shard holds the same quota and meters its own slice of the tenant's rows,
// so the quota is any shard's and the usage is the sum.
func sumTenants(lists [][]TenantStatus) []TenantStatus {
	sums := map[string]TenantStatus{}
	for _, list := range lists {
		for _, st := range list {
			if sum, seen := sums[st.Name]; seen {
				sum.Rows += st.Rows
				sum.Bytes += st.Bytes
				st = sum
			}
			sums[st.Name] = st
		}
	}
	out := make([]TenantStatus, 0, len(sums))
	for _, name := range slices.Sorted(maps.Keys(sums)) {
		out = append(out, sums[name])
	}
	return out
}

// --- change streams --------------------------------------------------------------

// changeStreamBuffer bounds each subscriber's queue.  The table's listener
// enqueues without blocking: a subscriber slower than the write rate loses
// events and is told so via a lagged marker, rather than ever stalling the
// engine's commit-ordered notification path.
const changeStreamBuffer = 256

// handleChanges streams a table's committed changes as NDJSON.  Only a
// front end over one backend with the changeSource capability (an
// in-process engine) can: a cross-shard stream would need commit-ordered
// merging across engines, which scatter-gather does not provide, so
// subscribers connect to the shard that owns their keys instead.
func (rt *Router) handleChanges(w http.ResponseWriter, r *http.Request) {
	src, ok := rt.backends[0].(changeSource)
	if len(rt.backends) != 1 || !ok {
		writeError(w, http.StatusNotImplemented,
			errors.New("server: change streaming is per-shard; connect to a shard server directly"))
		return
	}
	table := qualifyName(r, r.URL.Query().Get("table"))
	if table == "" {
		writeError(w, http.StatusBadRequest, errors.New("query parameter \"table\" is required"))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("response writer does not support streaming"))
		return
	}
	ch := make(chan relation.Change, changeStreamBuffer)
	var lagged atomic.Bool
	schema, cancel, err := src.subscribe(table, func(c relation.Change) {
		select {
		case ch <- c:
		default:
			lagged.Store(true)
		}
	})
	if err != nil {
		writeError(w, httpStatusOf(err), err)
		return
	}
	defer cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	enc := json.NewEncoder(w)

	// Streams end when the client disconnects, the server starts draining
	// or the engine closes; the periodic tick bounds how long an idle
	// stream can delay a graceful shutdown.
	drainTick := time.NewTicker(250 * time.Millisecond)
	defer drainTick.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-drainTick.C:
			if rt.draining.Load() || rt.backends[0].Health(r.Context()) != nil {
				return
			}
		case c := <-ch:
			if lagged.Swap(false) {
				if err := enc.Encode(ChangeEvent{Lagged: true}); err != nil {
					return
				}
			}
			ev := ChangeEvent{Table: c.Table, PK: c.PK}
			switch c.Kind {
			case relation.ChangeInsert:
				ev.Kind = "insert"
			case relation.ChangeUpdate:
				ev.Kind = "update"
			case relation.ChangeDelete:
				ev.Kind = "delete"
			}
			if c.New != nil {
				ev.Row = rowToJSON(schema, c.New)
			}
			if err := enc.Encode(ev); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}
