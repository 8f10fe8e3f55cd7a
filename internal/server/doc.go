// Package server is the HTTP serving layer over the SVR engine: a JSON API
// that exposes keyword search, row writes, batched mutations and the index
// and tenant lifecycle, plus the operational surface (health, stats,
// per-endpoint latency metrics) a long-running daemon needs.  cmd/svrserve
// is the daemon built on it.
//
// There is one front end, Router, over shard Backends: EngineBackend for an
// engine in the same process, HTTPBackend for a remote shard server.  A
// single node is a Router over one EngineBackend (New), so every deployment
// serves the same handlers and the same health and stats bodies.
//
// Endpoints (the README has the full reference):
//
//	POST   /v1/indexes/{name}/search     top-k keyword search (k,
//	                                     disjunctive, with_term_scores,
//	                                     load_rows), scatter-gathered
//	POST   /v1/indexes/{name}/termstats  per-term document frequencies
//	POST   /v1/tables/{name}/rows        batched row insertion, routed to
//	                                     the owning shards
//	GET    /v1/tables/{name}/schema      a table's columns
//	POST   /v1/batch                     mixed insert/update/delete ops,
//	                                     one Engine.ApplyBatch per shard
//	POST   /v1/indexes                   online index build on every shard
//	DELETE /v1/indexes/{name}            online index drop on every shard
//	POST   /v1/tenants, GET /v1/tenants  tenant quotas and summed usage
//	GET    /v1/changes                   NDJSON change stream; only over
//	                                     one in-process engine
//	GET    /healthz                      status plus per-shard health
//	GET    /v1/stats                     index, buffer-pool and page-file
//	                                     counters summed over shards, a
//	                                     per-shard breakdown, per-endpoint
//	                                     QPS and latency histograms
//
// The X-SVR-Tenant header namespaces every unqualified table and index
// name.  The layer adds routing, JSON codec work and metrics but no locking
// of its own: requests fan straight into the engine's goroutine-safe entry
// points (see ARCHITECTURE.md for the concurrency contract).  Shutdown is
// graceful — a draining fence turns new requests away with a clean 503,
// in-flight requests complete, then each owned engine's Engine.Close drains
// the index locks and audits buffer-pool pins — so a client can never
// observe a torn response or a half-closed engine.
//
// The package also houses the serving load generator (RunSearchLoad), which
// drives a query mix over real HTTP; svrbench -experiment serve and
// BenchmarkServeQuery use it to report serving overhead against the direct
// core.TextIndex.Search path.
package server
