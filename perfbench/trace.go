package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"svrdb/internal/core"
	"svrdb/internal/index"
	"svrdb/internal/relation"
	"svrdb/internal/server"
	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/pagefile"
)

// The traced run replays a fixed number of each workload's requests one at
// a time, so its counts repeat exactly for a seed.
const (
	traceSearches = 160 // searches replayed through every layer
	tracePairs    = 56  // pairs of same-size batches: one over HTTP, one direct
	traceLoadSecs = 1.0 // open-loop seconds measuring the generator's lateness
)

// span is one timed call at a layer boundary. Spans of one request share
// Req; the root is the HTTP call and its children are the direct calls into
// the layers below made for the same request, each naming why it ran.
type span struct {
	Req      int                `json:"req"`
	ID       int                `json:"id"`
	Parent   int                `json:"parent"` // 0 for a root span
	Name     string             `json:"name"`
	Cause    string             `json:"cause"`
	StartUS  float64            `json:"start_us"`
	EndUS    float64            `json:"end_us"`
	Counters map[string]float64 `json:"counters,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration((s.EndUS - s.StartUS) * 1e3) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	origin time.Time
	spans  []span
}

// call times fn as a span and records the counters it moved.
func (t *tracer) call(r *rig, req, parent int, name, cause string, fn func() error) (span, error) {
	before := r.counters()
	s := span{Req: req, ID: len(t.spans) + 1, Parent: parent, Name: name, Cause: cause}
	s.StartUS = float64(time.Since(t.origin).Nanoseconds()) / 1e3
	err := fn()
	s.EndUS = float64(time.Since(t.origin).Nanoseconds()) / 1e3
	s.Counters = r.counters().minus(before)
	t.spans = append(t.spans, s)
	return s, err
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// counterSet is the storage and index counters of every engine of a rig.
type counterSet struct {
	idx  index.Stats
	pool buffer.Stats
	file pagefile.Stats
}

// counters sums the counters over the rig's engines.
func (r *rig) counters() counterSet {
	var c counterSet
	for _, e := range r.engines {
		if ti, err := e.TextIndex(indexName); err == nil {
			s := ti.Stats()
			c.idx.ScoreUpdates += s.ScoreUpdates
			c.idx.ShortListPostingsWritten += s.ShortListPostingsWritten
			c.idx.TablePatches += s.TablePatches
			c.idx.Epoch += s.Epoch
			c.idx.PostingsScanned += s.PostingsScanned
			c.idx.ShortListEntries += s.ShortListEntries
			c.idx.RetainedPages += s.RetainedPages
			c.idx.LongListBytes += s.LongListBytes
			c.idx.LongListRawBytes += s.LongListRawBytes
		}
		p := e.Pool().Stats()
		c.pool.Hits += p.Hits
		c.pool.Misses += p.Misses
		c.pool.Evictions += p.Evictions
		c.pool.Flushes += p.Flushes
		f := e.Pool().File().Stats()
		c.file.Reads += f.Reads
		c.file.BytesWritten += f.BytesWritten
		c.file.WALBytes += f.WALBytes
		c.file.Fsyncs += f.Fsyncs
		c.file.Commits += f.Commits
	}
	return c
}

// minus returns the counters c moved since b, by name.
func (c counterSet) minus(b counterSet) map[string]float64 {
	d := func(x, y uint64) float64 { return float64(x) - float64(y) }
	return map[string]float64{
		"index.score_updates":          d(c.idx.ScoreUpdates, b.idx.ScoreUpdates),
		"index.short_postings_written": d(c.idx.ShortListPostingsWritten, b.idx.ShortListPostingsWritten),
		"index.table_patches":          d(c.idx.TablePatches, b.idx.TablePatches),
		"index.epoch_advances":         d(c.idx.Epoch, b.idx.Epoch),
		"index.postings_scanned":       d(c.idx.PostingsScanned, b.idx.PostingsScanned),
		"buffer.hits":                  d(c.pool.Hits, b.pool.Hits),
		"buffer.misses":                d(c.pool.Misses, b.pool.Misses),
		"buffer.evictions":             d(c.pool.Evictions, b.pool.Evictions),
		"buffer.flushes":               d(c.pool.Flushes, b.pool.Flushes),
		"pagefile.reads":               d(c.file.Reads, b.file.Reads),
		"pagefile.bytes_written":       d(c.file.BytesWritten, b.file.BytesWritten),
		"pagefile.wal_bytes":           d(c.file.WALBytes, b.file.WALBytes),
		"pagefile.fsyncs":              d(c.file.Fsyncs, b.file.Fsyncs),
		"pagefile.commits":             d(c.file.Commits, b.file.Commits),
	}
}

// traceRun is the state of one traced replay.
type traceRun struct {
	r       *rig
	in      *inputs
	d       *traffic
	t       *tracer
	tis     []*core.TextIndex
	tables  []*relation.Table
	part    core.Partitioner
	applied int // trace batches applied so far, in order

	// Per-request measurements the per-layer metrics reduce.
	httpSelf, coreSelf, topk, termstats, routerSelf []float64
	respBytes, postings, stopped, lookups           []float64
	hits, misses, evictions, fileReads              float64
	batchSelf, flushCommit, relUpdate               []float64
	batchCounters                                   map[string]float64
	batches                                         int
	retainedMax                                     float64
	httpRT                                          []float64
}

// search replays request req (query qi) through the HTTP API and the
// direct layer calls below it, alternating their order by request.
func (tr *traceRun) search(req, qi int) error {
	q := tr.in.queries[qi]
	body := tr.d.searchBodies[qi]
	var rootID int
	var resp server.SearchResponse
	var respLen int
	httpCall := func() error {
		name := "server.search"
		if tr.r.router != nil {
			name = "server.router.search"
		}
		s, err := tr.t.call(tr.r, req, 0, name, "search request from the load generator", func() error {
			n, err := post(tr.r.client, tr.r.searchURL(), body, &resp)
			respLen = n
			return err
		})
		rootID = s.ID
		c := s.Counters
		tr.hits += c["buffer.hits"]
		tr.misses += c["buffer.misses"]
		tr.evictions += c["buffer.evictions"]
		tr.fileReads += c["pagefile.reads"]
		tr.httpRT = append(tr.httpRT, ms(s.dur()))
		return err
	}
	type shardTimes struct{ search, topk time.Duration }
	var shards []shardTimes
	var termstats time.Duration
	var global *index.GlobalStats
	var qr *index.QueryResult
	var postings, lookups float64 // summed over shards
	direct := func() error {
		// Parent -1 marks a child of the root span, which may not exist yet
		// when the direct calls go first; it is linked once both have run.
		if q.termScores && len(tr.tis) > 1 {
			global = &index.GlobalStats{DF: make([]int64, len(q.terms))}
			for i, ti := range tr.tis {
				var n int64
				var df []int64
				s, err := tr.t.call(tr.r, req, -1, fmt.Sprintf("core.TextIndex.TermStats[shard-%d]", i),
					"router gathers global IDF below server", func() error {
						var err error
						n, df, err = ti.TermStats(q.text)
						return err
					})
				if err != nil {
					return err
				}
				termstats = max(termstats, s.dur())
				global.NumDocs += n
				for j := range df {
					global.DF[j] += df[j]
				}
			}
		}
		shards = make([]shardTimes, len(tr.tis))
		for i, ti := range tr.tis {
			creq := q.coreRequest()
			creq.Global = global
			s, err := tr.t.call(tr.r, req, -1, fmt.Sprintf("core.TextIndex.Search[shard-%d]", i),
				"same request replayed below server", func() error {
					_, err := ti.Search(creq)
					return err
				})
			if err != nil {
				return err
			}
			shards[i].search = s.dur()
			searchID := s.ID
			s, err = tr.t.call(tr.r, req, searchID, fmt.Sprintf("index.Method.TopK[shard-%d]", i),
				"same request replayed below core", func() error {
					var err error
					qr, err = ti.Method().TopK(index.Query{
						Terms: q.terms, K: q.k, Disjunctive: q.disjunctive,
						WithTermScores: q.termScores, Global: global,
					})
					return err
				})
			if err != nil {
				return err
			}
			shards[i].topk = s.dur()
			postings += float64(qr.PostingsScanned)
			lookups += float64(qr.ScoreLookups)
			stopped := 0.0
			if qr.Stopped {
				stopped = 1
			}
			tr.stopped = append(tr.stopped, stopped)
		}
		return nil
	}
	first := len(tr.t.spans)
	calls := []func() error{httpCall, direct}
	if req%2 == 1 {
		calls[0], calls[1] = direct, httpCall
	}
	for _, c := range calls {
		if err := c(); err != nil {
			return err
		}
	}
	for i := first; i < len(tr.t.spans); i++ {
		if tr.t.spans[i].Parent == -1 {
			tr.t.spans[i].Parent = rootID
		}
	}
	tr.d.recs = append(tr.d.recs, searchRec{q: qi, lo: tr.applied, hi: tr.applied, resp: &resp})
	tr.respBytes = append(tr.respBytes, float64(respLen))
	tr.postings = append(tr.postings, postings)
	tr.lookups = append(tr.lookups, lookups)

	// Self time is a span's duration minus the time its children cover.
	// Shards run in parallel under the router, so the slowest shard's
	// Search covers that step; the termstats gather is a step of its own.
	slow := 0
	for i := range shards {
		if shards[i].search > shards[slow].search {
			slow = i
		}
	}
	rt := tr.t.spans[rootID-1].dur()
	tr.coreSelf = append(tr.coreSelf, ms(shards[slow].search-shards[slow].topk))
	tr.topk = append(tr.topk, ms(shards[slow].topk))
	if tr.r.router != nil {
		tr.routerSelf = append(tr.routerSelf, ms(rt-shards[slow].search-termstats))
		tr.termstats = append(tr.termstats, ms(termstats))
	} else {
		tr.httpSelf = append(tr.httpSelf, ms(rt-shards[slow].search))
	}
	tr.noteRetained()
	return nil
}

// noteRetained samples the pages kept alive for snapshot readers.
func (tr *traceRun) noteRetained() {
	var n int
	for _, ti := range tr.tis {
		n += ti.Stats().RetainedPages
	}
	tr.retainedMax = max(tr.retainedMax, float64(n))
}

// batchPair sends one trace batch over HTTP and applies another of the same
// size directly through Engine.ApplyBatch, alternating which goes first.
// Batches still apply in trace order, each exactly once.
func (tr *traceRun) batchPair(req int) error {
	a, b := tr.applied, tr.applied+1 // a goes over HTTP, b direct
	if req%2 == 1 {
		a, b = b, a
	}
	var rootID int
	var httpDur time.Duration
	httpCall := func() error {
		body := tr.d.batchBodies[a%len(tr.d.batchBodies)]
		s, err := tr.t.call(tr.r, req, 0, "server.batch", fmt.Sprintf("trace batch %d from the load generator", a), func() error {
			_, err := post(tr.r.client, tr.r.baseURL+"/v1/batch", body, nil)
			return err
		})
		rootID, httpDur = s.ID, s.dur()
		tr.addBatchCounters(s.Counters)
		return err
	}
	var directDur, closureDur time.Duration
	direct := func() error {
		batch := tr.in.batches[b%len(tr.in.batches)]
		perShard := make([][]int, len(tr.r.engines))
		for i, u := range batch {
			sh := 0
			if len(tr.r.engines) > 1 {
				sh = tr.part.Shard(int64(u.Doc), len(tr.r.engines))
			}
			perShard[sh] = append(perShard[sh], i)
		}
		for sh, e := range tr.r.engines {
			if len(perShard[sh]) == 0 {
				continue
			}
			var inner time.Duration
			tbl := tr.tables[sh]
			s, err := tr.t.call(tr.r, req, -1, fmt.Sprintf("core.Engine.ApplyBatch[shard-%d]", sh),
				fmt.Sprintf("trace batch %d, the same size, applied below server", b), func() error {
					return e.ApplyBatch(func() error {
						t0 := time.Now()
						defer func() { inner = time.Since(t0) }()
						for _, i := range perShard[sh] {
							u := batch[i]
							if err := tbl.Update(int64(u.Doc), map[string]relation.Value{"score": relation.Float(u.NewScore)}); err != nil {
								return err
							}
						}
						return nil
					})
				})
			if err != nil {
				return err
			}
			tr.addBatchCounters(s.Counters)
			// The closure's updates are a child span: relation and view work.
			tr.t.spans = append(tr.t.spans, span{
				Req: req, ID: len(tr.t.spans) + 1, Parent: s.ID, Name: fmt.Sprintf("relation.Table.Update[shard-%d]", sh),
				Cause: "score updates inside ApplyBatch", StartUS: s.StartUS, EndUS: s.StartUS + float64(inner.Nanoseconds())/1e3,
			})
			if s.dur() > directDur {
				directDur, closureDur = s.dur(), inner
			}
		}
		return nil
	}
	first := len(tr.t.spans)
	calls := []func() error{httpCall, direct}
	if req%2 == 1 {
		calls[0], calls[1] = direct, httpCall
	}
	for _, c := range calls {
		if err := c(); err != nil {
			return err
		}
	}
	for i := first; i < len(tr.t.spans); i++ {
		if tr.t.spans[i].Parent == -1 {
			tr.t.spans[i].Parent = rootID
		}
	}
	tr.applied += 2
	tr.batches += 2
	tr.d.acked.Store(int64(tr.applied))
	tr.d.started.Store(int64(tr.applied))
	tr.batchSelf = append(tr.batchSelf, ms(httpDur-directDur))
	tr.flushCommit = append(tr.flushCommit, ms(directDur-closureDur))
	tr.relUpdate = append(tr.relUpdate, ms(closureDur))
	tr.noteRetained()
	return nil
}

func (tr *traceRun) addBatchCounters(c map[string]float64) {
	for k, v := range c {
		tr.batchCounters[k] += v
	}
}

// runTraced replays one workload through every layer and reduces the spans
// to the per-layer metrics.
func runTraced(spec *workloadSpec, seed int64, workDir, spanPath string) (*runResult, error) {
	conns := min(maxConnections, runtime.NumCPU())
	r, in, err := setUp(spec, seed, workDir, conns)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	d, err := newTraffic(r, in)
	if err != nil {
		r.close()
		return nil, err
	}
	tis, err := r.textIndexes()
	if err != nil {
		r.close()
		return nil, err
	}
	tr := &traceRun{r: r, in: in, d: d, t: &tracer{origin: time.Now()}, tis: tis, batchCounters: map[string]float64{}}
	for _, e := range r.engines {
		tbl, err := e.DB().Table(tableName)
		if err != nil {
			r.close()
			return nil, err
		}
		tr.tables = append(tr.tables, tbl)
	}
	if tr.part, err = core.PartitionerByName(""); err != nil {
		r.close()
		return nil, err
	}
	o, err := newOracle(in.corpus, in.queries)
	if err != nil {
		r.close()
		return nil, err
	}
	ctx := context.Background()

	// A failed request counts against the run; the replay goes on.
	var first int
	var untraced phaseResult
	searches := func() {
		// Warm-up, then the searches about to be traced, untraced: the
		// baseline the tracing overhead is measured against, on the same
		// index state. All of it runs one request at a time, so the counts
		// repeat exactly for a seed.
		d.searchPhase(ctx, warmRate, warmQueries, 1)
		first = d.nextQuery
		untraced = d.searchPhase(ctx, warmRate, traceSearches, 1)
		d.recs = d.recs[:0]
		for i := 0; i < traceSearches; i++ {
			d.attempted++
			if err := tr.search(i, (first+i)%len(in.queries)); err != nil {
				d.noteErr(err)
			}
		}
	}
	batches := func() {
		for i := 0; i < tracePairs; i++ {
			d.attempted += 2
			if err := tr.batchPair(traceSearches + i); err != nil {
				d.noteErr(err)
			}
		}
	}
	if spec.mixed {
		batches()
		searches()
	} else {
		searches()
		batches()
	}
	late := d.searchPhase(ctx, spec.searchRate, int(spec.searchRate*traceLoadSecs), conns)
	d.checked = d.verify(o)

	end := r.counters()
	pages := r.storeBytes() / pagefile.DefaultPageSize
	d.attempted++
	if err := r.close(); err != nil {
		d.noteErr(fmt.Errorf("teardown: %w", err))
	}
	if err := tr.t.write(spanPath); err != nil {
		return nil, err
	}
	res := &runResult{spec: spec, in: in, d: d, spans: len(tr.t.spans)}
	res.layers = tr.layerMetrics(end, pages, untraced, late)
	return res, nil
}
