package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"svrdb/internal/core"
	"svrdb/internal/index"
	"svrdb/internal/relation"
)

// EngineBackend serves a shard from an engine in the router's own process.
// It is the only place the HTTP layer touches a core.Engine: a single-node
// server is a Router over one EngineBackend (see New), and a shard server
// behind an HTTPBackend is the same thing, so every write takes this code
// path whatever the deployment.
type EngineBackend struct {
	label  string
	engine *core.Engine
	// ownsEngine: Close closes the engine only if this backend opened it
	// conceptually (the router built it), not when the caller shares the
	// engine with other frontends.
	ownsEngine bool
}

// NewEngineBackend wraps an engine as a shard backend.  When ownsEngine is
// true, closing the backend closes the engine.
func NewEngineBackend(label string, engine *core.Engine, ownsEngine bool) *EngineBackend {
	return &EngineBackend{label: label, engine: engine, ownsEngine: ownsEngine}
}

// Engine returns the wrapped engine (tests and the bench harness use it to
// load shard data directly).
func (b *EngineBackend) Engine() *core.Engine { return b.engine }

func (b *EngineBackend) Label() string { return b.label }

func (b *EngineBackend) Search(ctx context.Context, index string, req SearchRequest) (*SearchResponse, error) {
	query, err := normalizeQuery(req.Query, req.Terms)
	if err != nil {
		return nil, &backendError{status: http.StatusBadRequest, msg: err.Error()}
	}
	k, err := boundSearchK(req.K)
	if err != nil {
		return nil, &backendError{status: http.StatusBadRequest, msg: err.Error()}
	}
	ti, err := b.engine.TextIndex(index)
	if err != nil {
		return nil, notFoundBackendErr("index", index, err)
	}
	res, err := ti.Search(coreSearchRequest(query, k, req))
	if err != nil {
		return nil, err
	}
	resp := searchResponseFromResult(b.engine, ti.Table(), res, req.LoadRows)
	return &resp, nil
}

// coreSearchRequest translates the JSON DTO into the engine's request type.
func coreSearchRequest(query string, k int, req SearchRequest) core.SearchRequest {
	creq := core.SearchRequest{
		Query:          query,
		K:              k,
		Disjunctive:    req.Disjunctive,
		WithTermScores: req.WithTermScores,
		LoadRows:       req.LoadRows,
	}
	if req.Global != nil {
		creq.Global = &index.GlobalStats{NumDocs: req.Global.NumDocs, DF: req.Global.DF}
	}
	return creq
}

// searchResponseFromResult renders an engine result as the wire response,
// resolving rows through the index's base table schema when requested.
func searchResponseFromResult(e *core.Engine, table string, res *core.SearchResult, loadRows bool) SearchResponse {
	resp := SearchResponse{
		Hits:            make([]SearchHit, len(res.Hits)),
		PostingsScanned: res.PostingsScanned,
		Stopped:         res.Stopped,
		Partial:         res.Partial,
	}
	var schema relation.Schema
	if loadRows {
		if tbl, err := e.DB().Table(table); err == nil {
			schema = tbl.Schema()
		}
	}
	for i, h := range res.Hits {
		resp.Hits[i] = SearchHit{PK: h.PK, Score: h.Score}
		if h.Row != nil && len(schema.Columns) > 0 {
			resp.Hits[i].Row = rowToJSON(schema, h.Row)
		}
	}
	return resp
}

func (b *EngineBackend) TermStats(ctx context.Context, index, query string) (*TermStatsResponse, error) {
	ti, err := b.engine.TextIndex(index)
	if err != nil {
		return nil, notFoundBackendErr("index", index, err)
	}
	numDocs, df, err := ti.TermStats(query)
	if err != nil {
		return nil, err
	}
	return &TermStatsResponse{NumDocs: numDocs, DF: df}, nil
}

// InsertRows decodes and inserts rows through one ApplyBatch.  Decode
// errors surface as ErrInvalidRequest, which maps to 400.
func (b *EngineBackend) InsertRows(ctx context.Context, table string, jsonRows []map[string]json.RawMessage) error {
	e := b.engine
	tbl, err := e.DB().Table(table)
	if err != nil {
		return err
	}
	rows := make([]relation.Row, len(jsonRows))
	for i, obj := range jsonRows {
		row, err := rowFromJSON(tbl.Schema(), obj)
		if err != nil {
			return fmt.Errorf("%w: row %d: %s", core.ErrInvalidRequest, i, err)
		}
		rows[i] = row
	}
	// One ApplyBatch per request: the rows' index maintenance flushes
	// through the batched write pipeline instead of one tree round-trip
	// per row.  Rows are schema-validated above, but a runtime failure
	// (e.g. a duplicate primary key) has no rollback — rows before the
	// failing one stay inserted, and the error names where the batch
	// stopped.  The quota pre-check runs under the batch lock before any
	// mutation: an over-quota insert batch rejects atomically.
	var pre func() error
	if tenant := core.TenantOf(table); tenant != "" {
		var addBytes int64
		for _, row := range rows {
			addBytes += int64(core.EncodedRowSize(row))
		}
		pre = func() error {
			return e.CheckTenantQuota(tenant, int64(len(rows)), addBytes)
		}
	}
	return e.ApplyBatchChecked(pre, func() error {
		for i, row := range rows {
			if err := tbl.Insert(row); err != nil {
				return fmt.Errorf("row %d: %w", i, err)
			}
		}
		return nil
	})
}

// Batch binds and applies a batch of ops as one ApplyBatch.  Matched counts
// the ops that found a row (inserts always do); Missed lists the
// ignore_missing updates and deletes that did not.
func (b *EngineBackend) Batch(ctx context.Context, ops []BatchOp) (*BatchResponse, error) {
	e := b.engine
	// Schema-validate and bind every op before mutating anything, so a
	// malformed op (unknown table/column, wrong type, unknown op kind)
	// rejects the batch before any write.  Runtime failures inside the
	// batch (duplicate primary key, update/delete of a missing row) are a
	// different matter: the engine has no rollback, so ops before the
	// failing one stay applied and the error names the op that stopped the
	// batch — clients must treat a non-2xx as "applied up to the named op".
	bound := make([]boundOp, len(ops))
	metered := false
	for i, op := range ops {
		bo, err := bindOp(e, op)
		if err != nil {
			if !errors.Is(err, relation.ErrNotFound) {
				err = fmt.Errorf("%w: %s", core.ErrInvalidRequest, err)
			}
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
		bound[i] = bo
		metered = metered || bo.tenant != ""
	}
	// Quota admission: under the batch lock (where no other batch can move
	// usage), sum every metered tenant's projected row/byte delta and check
	// it against its quota.  A failing check rejects the whole batch before
	// any op runs, so one tenant's over-quota batch never half-applies and
	// never disturbs other tenants' batches queued behind it.
	var pre func() error
	if metered {
		pre = func() error {
			type delta struct{ rows, bytes int64 }
			perTenant := map[string]*delta{}
			for _, bo := range bound {
				if bo.tenant == "" {
					continue
				}
				rows, bytes := bo.delta()
				d := perTenant[bo.tenant]
				if d == nil {
					d = &delta{}
					perTenant[bo.tenant] = d
				}
				d.rows += rows
				d.bytes += bytes
			}
			for tenant, d := range perTenant {
				if err := e.CheckTenantQuota(tenant, d.rows, d.bytes); err != nil {
					return err
				}
			}
			return nil
		}
	}
	resp := &BatchResponse{Applied: len(ops)}
	err := e.ApplyBatchChecked(pre, func() error {
		for i, bo := range bound {
			found, err := bo.apply()
			if err != nil {
				return fmt.Errorf("op %d: %w", i, err)
			}
			if found {
				resp.Matched++
			} else {
				resp.Missed = append(resp.Missed, i)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// boundOp is one schema-validated batch op: the closure that applies it
// and reports whether it found its target row,
// plus — for ops on tenant-namespaced tables — the tenant it is metered
// against and a delta function projecting its row/byte footprint change.
// delta is only called under the batch lock, where the rows it reads cannot
// move before apply runs.
type boundOp struct {
	apply  func() (found bool, err error)
	tenant string
	delta  func() (rows, bytes int64)
}

// bindOp resolves one batch op against the schema and returns the closure
// that applies it.
func bindOp(e *core.Engine, op BatchOp) (boundOp, error) {
	tbl, err := e.DB().Table(op.Table)
	if err != nil {
		return boundOp{}, err
	}
	b := boundOp{tenant: core.TenantOf(op.Table)}
	switch op.Op {
	case "insert":
		if op.Row == nil {
			return boundOp{}, errors.New("insert requires \"row\"")
		}
		row, err := rowFromJSON(tbl.Schema(), op.Row)
		if err != nil {
			return boundOp{}, err
		}
		b.delta = func() (int64, int64) { return 1, int64(core.EncodedRowSize(row)) }
		b.apply = func() (bool, error) {
			return true, tbl.Insert(row)
		}
		return b, nil
	case "update":
		if op.PK == nil {
			return boundOp{}, errors.New("update requires \"pk\"")
		}
		if len(op.Set) == 0 {
			return boundOp{}, errors.New("update requires a non-empty \"set\"")
		}
		set, err := setFromJSON(tbl.Schema(), op.Set)
		if err != nil {
			return boundOp{}, err
		}
		pk, ignore := *op.PK, op.IgnoreMissing
		b.delta = func() (int64, int64) {
			old, err := tbl.Get(pk)
			if err != nil {
				return 0, 0
			}
			updated := applySet(tbl.Schema(), old, set)
			return 0, int64(core.EncodedRowSize(updated)) - int64(core.EncodedRowSize(old))
		}
		b.apply = func() (bool, error) {
			return ignoreMissing(tbl.Update(pk, set), ignore)
		}
		return b, nil
	case "delete":
		if op.PK == nil {
			return boundOp{}, errors.New("delete requires \"pk\"")
		}
		pk, ignore := *op.PK, op.IgnoreMissing
		b.delta = func() (int64, int64) {
			old, err := tbl.Get(pk)
			if err != nil {
				return 0, 0
			}
			return -1, -int64(core.EncodedRowSize(old))
		}
		b.apply = func() (bool, error) {
			return ignoreMissing(tbl.Delete(pk), ignore)
		}
		return b, nil
	default:
		return boundOp{}, fmt.Errorf("unknown op %q (want insert, update or delete)", op.Op)
	}
}

// ignoreMissing turns an update's or delete's result into (found, err): a
// missing row is a miss rather than an error when the op set ignore.
func ignoreMissing(err error, ignore bool) (bool, error) {
	if ignore && errors.Is(err, relation.ErrNotFound) {
		return false, nil
	}
	return err == nil, err
}

// applySet projects an update onto a copy of a row, for quota byte-delta
// estimation; unknown columns were already rejected by setFromJSON.
func applySet(schema relation.Schema, old relation.Row, set map[string]relation.Value) relation.Row {
	updated := make(relation.Row, len(old))
	copy(updated, old)
	for name, v := range set {
		if idx, err := schema.ColumnIndex(name); err == nil && idx < len(updated) {
			updated[idx] = v
		}
	}
	return updated
}

func (b *EngineBackend) Schema(ctx context.Context, table string) (*SchemaResponse, error) {
	tbl, err := b.engine.DB().Table(table)
	if err != nil {
		return nil, notFoundBackendErr("table", table, err)
	}
	resp := SchemaResponse{Table: table, Columns: make([]SchemaColumn, len(tbl.Schema().Columns))}
	for i, col := range tbl.Schema().Columns {
		kind := "string"
		switch col.Kind {
		case relation.KindInt64:
			kind = "int64"
		case relation.KindFloat64:
			kind = "float64"
		}
		resp.Columns[i] = SchemaColumn{Name: col.Name, Kind: kind}
	}
	return &resp, nil
}

// Stats reports the engine half of the stats body: index, buffer-pool,
// pagefile and durability counters.
func (b *EngineBackend) Stats(ctx context.Context) (map[string]any, error) {
	e := b.engine
	indexes := map[string]any{}
	for _, name := range e.TextIndexNames() {
		ti, err := e.TextIndex(name)
		if err != nil {
			continue
		}
		st := ti.Stats()
		indexes[name] = map[string]any{
			"method":                      st.Method,
			"long_list_bytes":             st.LongListBytes,
			"long_list_raw_bytes":         st.LongListRawBytes,
			"compression_ratio":           compressionRatio(float64(st.LongListRawBytes), float64(st.LongListBytes)),
			"pages_read":                  st.PagesRead,
			"short_list_entries":          st.ShortListEntries,
			"score_updates":               st.ScoreUpdates,
			"short_list_postings_written": st.ShortListPostingsWritten,
			"long_list_postings_written":  st.LongListPostingsWritten,
			"queries":                     st.Queries,
			"postings_scanned":            st.PostingsScanned,
			"table_patches":               st.TablePatches,
			"epoch":                       st.Epoch,
			"active_readers":              st.ActiveReaders,
			"retained_pages":              st.RetainedPages,
		}
	}
	pool := e.Pool()
	ps := pool.Stats()
	fs := pool.File().Stats()
	return map[string]any{
		"indexes": indexes,
		"pool": map[string]any{
			"hits":          ps.Hits,
			"misses":        ps.Misses,
			"evictions":     ps.Evictions,
			"flushes":       ps.Flushes,
			"over_releases": ps.OverReleases,
		},
		"pagefile": map[string]any{
			"reads":         fs.Reads,
			"writes":        fs.Writes,
			"allocs":        fs.Allocs,
			"frees":         fs.Frees,
			"reuses":        fs.Reuses,
			"bytes_read":    fs.BytesRead,
			"bytes_written": fs.BytesWritten,
		},
		"durability": map[string]any{
			"commits":       fs.Commits,
			"wal_bytes":     fs.WALBytes,
			"catalog_bytes": e.CatalogBytes(),
			"fsyncs":        fs.Fsyncs,
			"recoveries":    fs.Recoveries,
			"torn_pages":    fs.TornPages,
		},
	}, nil
}

// CreateIndex validates a creation request and builds the index, replying
// with the canonical method name.
func (b *EngineBackend) CreateIndex(ctx context.Context, req CreateIndexRequest) (*CreateIndexResponse, error) {
	e := b.engine
	if req.Name == "" || req.Table == "" || req.Column == "" {
		return nil, fmt.Errorf("%w: \"name\", \"table\" and \"column\" are required", core.ErrInvalidRequest)
	}
	if req.Spec == "" {
		return nil, fmt.Errorf("%w: \"spec\" must name a registered score spec (one of %v)",
			core.ErrInvalidRequest, e.SpecNames())
	}
	ti, err := e.CreateTextIndex(req.Name, req.Table, req.Column, core.IndexOptions{
		Method:         core.MethodKind(req.Method),
		SpecName:       req.Spec,
		ThresholdRatio: req.ThresholdRatio,
		ChunkRatio:     req.ChunkRatio,
		MinChunkSize:   req.MinChunkSize,
		FancyListSize:  req.FancyListSize,
	})
	if errors.Is(err, relation.ErrNotFound) {
		return nil, notFoundBackendErr("table", req.Table, err)
	}
	if err != nil {
		return nil, err
	}
	return &CreateIndexResponse{Name: req.Name, Table: req.Table, Column: req.Column, Method: ti.Method().Name()}, nil
}

func (b *EngineBackend) DropIndex(ctx context.Context, name string) error {
	if err := b.engine.DropTextIndex(name); err != nil {
		if errors.Is(err, relation.ErrNotFound) {
			return notFoundBackendErr("index", name, err)
		}
		return err
	}
	return nil
}

// CreateTenant registers the tenant and, on durable engines, persists the
// registration immediately through an empty batch (the catalog commit rides
// the batch path), so a quota survives a crash that follows it.
func (b *EngineBackend) CreateTenant(ctx context.Context, req CreateTenantRequest) (*TenantStatus, error) {
	quota := core.TenantQuota{MaxRows: req.MaxRows, MaxBytes: req.MaxBytes}
	if err := b.engine.CreateTenant(req.Name, quota); err != nil {
		return nil, err
	}
	if err := b.engine.ApplyBatch(func() error { return nil }); err != nil {
		return nil, err
	}
	st := b.tenantStatus(req.Name)
	return &st, nil
}

func (b *EngineBackend) Tenants(ctx context.Context) ([]TenantStatus, error) {
	names := b.engine.TenantNames()
	out := make([]TenantStatus, len(names))
	for i, n := range names {
		out[i] = b.tenantStatus(n)
	}
	return out, nil
}

func (b *EngineBackend) tenantStatus(name string) TenantStatus {
	quota, _ := b.engine.TenantQuotaOf(name)
	usage := b.engine.TenantUsageOf(name)
	return TenantStatus{
		Name:     name,
		MaxRows:  quota.MaxRows,
		MaxBytes: quota.MaxBytes,
		Rows:     usage.Rows,
		Bytes:    usage.Bytes,
	}
}

// subscribe implements changeSource: fn sees every committed change of the
// table, on the engine's commit path, until cancel is called.
func (b *EngineBackend) subscribe(table string, fn func(relation.Change)) (relation.Schema, func(), error) {
	tbl, err := b.engine.DB().Table(table)
	if err != nil {
		return relation.Schema{}, nil, notFoundBackendErr("table", table, err)
	}
	handle := tbl.OnChange(fn)
	return tbl.Schema(), func() { tbl.RemoveListener(handle) }, nil
}

// Health reports the engine's close state; an in-process shard is down only
// once its engine is closed.
func (b *EngineBackend) Health(ctx context.Context) error {
	if b.engine.Closed() {
		return fmt.Errorf("engine closed: %w", core.ErrClosed)
	}
	return nil
}

func (b *EngineBackend) Close() error {
	if !b.ownsEngine {
		return nil
	}
	return b.engine.Close()
}
