package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"svrdb/internal/core"
	"svrdb/internal/relation"
	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/pagefile"
	"svrdb/internal/view"
	"svrdb/internal/workload"
)

// equivalenceParams is a corpus small enough to build 6 methods × 11
// engines in test time but rich enough that queries rank real top-k sets.
func equivalenceParams() workload.Params {
	return workload.Params{
		NumDocs:     300,
		TermsPerDoc: 40,
		VocabSize:   500,
		TermZipf:    1.0,
		ScoreMax:    100000,
		ScoreZipf:   0.75,
		Seed:        7,
	}
}

var equivalenceSchema = relation.Schema{
	Name: "Docs",
	Columns: []relation.Column{
		{Name: "id", Kind: relation.KindInt64},
		{Name: "body", Kind: relation.KindString},
		{Name: "score", Kind: relation.KindFloat64},
	},
}

func equivalenceSpec() view.Spec {
	return view.Spec{Components: []view.Component{view.OwnColumn("Docs", "score")}}
}

// newEquivalenceEngine returns an engine with an empty Docs table and the
// "score" spec registered, ready to be loaded directly or through a router.
func newEquivalenceEngine(t *testing.T) *core.Engine {
	t.Helper()
	db := relation.NewDB(buffer.MustNew(pagefile.MustNewMem(pagefile.DefaultPageSize), 4096))
	if _, err := db.CreateTable(equivalenceSchema); err != nil {
		t.Fatal(err)
	}
	e := core.NewEngine(db, core.Options{})
	e.RegisterSpec("score", equivalenceSpec())
	return e
}

// assertSameRanking requires byte-identical rankings: same length, same
// ids in the same order, bitwise-equal scores, and no partial result.
func assertSameRanking(t *testing.T, label string, want *core.SearchResult, got SearchResponse) {
	t.Helper()
	if got.Partial {
		t.Fatalf("%s: router over healthy in-process shards reported a partial result", label)
	}
	if len(want.Hits) != len(got.Hits) {
		t.Fatalf("%s: single engine returned %d hits, router %d", label, len(want.Hits), len(got.Hits))
	}
	for i := range want.Hits {
		w, g := want.Hits[i], got.Hits[i]
		if w.PK != g.PK {
			t.Fatalf("%s: hit %d: single pk %d, router pk %d", label, i, w.PK, g.PK)
		}
		if math.Float64bits(w.Score) != math.Float64bits(g.Score) {
			t.Fatalf("%s: hit %d (doc %d): single score %v (%x), router %v (%x)",
				label, i, w.PK, w.Score, math.Float64bits(w.Score), g.Score, math.Float64bits(g.Score))
		}
	}
}

// TestRouterShardedEquivalence is the sharding correctness property: for
// every method, a router over 1–4 in-process shards, loaded and updated
// through its own HTTP API, returns byte-identical top-k (ids, scores,
// order) to one engine's TextIndex.Search over the whole corpus —
// conjunctive and disjunctive, before and after a routed /v1/batch
// score-update trace, and for the TermScore methods under combined
// SVR+TF-IDF ranking, where the router pins global collection statistics.
func TestRouterShardedEquivalence(t *testing.T) {
	corpus := workload.Generate(equivalenceParams())
	qp := workload.DefaultQueryParams()
	qp.NumQueries = 12
	qp.Seed = 11
	queries := workload.GenerateQueries(corpus, qp)

	up := workload.DefaultUpdateParams()
	up.NumUpdates = 400
	up.Seed = 13
	updates := workload.GenerateUpdates(corpus, up)

	var rows []map[string]json.RawMessage
	if err := corpus.ForEach(func(doc workload.DocID, tokens []string) error {
		rows = append(rows, map[string]json.RawMessage{
			"id":    json.RawMessage(fmt.Sprint(int64(doc))),
			"body":  json.RawMessage(fmt.Sprintf("%q", strings.Join(tokens, " "))),
			"score": json.RawMessage(fmt.Sprint(corpus.Score(doc))),
		})
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	for _, kind := range core.AllMethods() {
		t.Run(string(kind), func(t *testing.T) {
			single := newEquivalenceEngine(t)
			defer single.Close()
			tbl, err := single.DB().Table("Docs")
			if err != nil {
				t.Fatal(err)
			}
			if err := corpus.ForEach(func(doc workload.DocID, tokens []string) error {
				return tbl.Insert(relation.Row{relation.Int(int64(doc)), relation.Str(strings.Join(tokens, " ")), relation.Float(corpus.Score(doc))})
			}); err != nil {
				t.Fatal(err)
			}
			si, err := single.CreateTextIndex("docs", "Docs", "body", core.IndexOptions{
				Method: kind, Spec: equivalenceSpec(), MinChunkSize: 8,
			})
			if err != nil {
				t.Fatal(err)
			}
			withTS := kind == core.MethodIDTermScore || kind == core.MethodChunkTermScore

			shardCounts := []int{1, 2, 3, 4}
			bases := make([]string, len(shardCounts))
			for i, n := range shardCounts {
				engines := make([]*core.Engine, n)
				for j := range engines {
					engines[j] = newEquivalenceEngine(t)
				}
				_, bases[i] = startRouter(t, engines, RouterOptions{Partitioner: "hash"})
				if status, data := postJSON(t, bases[i]+"/v1/tables/Docs/rows", InsertRowsRequest{Rows: rows}); status != http.StatusOK {
					t.Fatalf("shards=%d: load status %d, body %s", n, status, data)
				}
				if status, data := postJSON(t, bases[i]+"/v1/indexes", CreateIndexRequest{
					Name: "docs", Table: "Docs", Column: "body", Method: string(kind), Spec: "score", MinChunkSize: 8,
				}); status != http.StatusCreated {
					t.Fatalf("shards=%d: create index status %d, body %s", n, status, data)
				}
			}

			check := func(phase string) {
				for qi, terms := range queries {
					query := strings.Join(terms, " ")
					for _, k := range []int{1, 10} {
						reqs := []SearchRequest{
							{Query: query, K: k},
							{Query: query, K: k, Disjunctive: true},
						}
						if withTS {
							reqs = append(reqs, SearchRequest{Query: query, K: k, WithTermScores: true})
						}
						for _, req := range reqs {
							want, err := si.Search(core.SearchRequest{
								Query: query, K: k, Disjunctive: req.Disjunctive, WithTermScores: req.WithTermScores,
							})
							if err != nil {
								t.Fatal(err)
							}
							for i, base := range bases {
								label := fmt.Sprintf("%s shards=%d q%d k=%d disj=%v termscores=%v",
									phase, shardCounts[i], qi, k, req.Disjunctive, req.WithTermScores)
								assertSameRanking(t, label, want, searchVia(t, base, "docs", req))
							}
						}
					}
				}
			}

			check("built")
			if err := single.ApplyBatch(func() error {
				for _, u := range updates {
					if err := tbl.Update(int64(u.Doc), map[string]relation.Value{"score": relation.Float(u.NewScore)}); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			// The same trace through each router, in batches of 100 ops.
			for _, base := range bases {
				for start := 0; start < len(updates); start += 100 {
					var ops []BatchOp
					for _, u := range updates[start:min(start+100, len(updates))] {
						pk := int64(u.Doc)
						ops = append(ops, BatchOp{Op: "update", Table: "Docs", PK: &pk,
							Set: map[string]json.RawMessage{"score": json.RawMessage(fmt.Sprint(u.NewScore))}})
					}
					if status, data := postJSON(t, base+"/v1/batch", BatchRequest{Ops: ops}); status != http.StatusOK {
						t.Fatalf("update batch status %d, body %s", status, data)
					}
				}
			}
			check("updated")
		})
	}
}

var reviewsSchema = relation.Schema{
	Name: "Reviews",
	Columns: []relation.Column{
		{Name: "rID", Kind: relation.KindInt64},
		{Name: "mID", Kind: relation.KindInt64},
		{Name: "rating", Kind: relation.KindFloat64},
	},
}

// reviewsRouting routes Reviews rows by movie, as svrserve's archive does.
var reviewsRouting = map[string]string{"Reviews": "mID"}

// newReviewsEngine returns an engine with an empty Reviews table indexed
// on its routing column.
func newReviewsEngine(t *testing.T) *core.Engine {
	t.Helper()
	db := relation.NewDB(buffer.MustNew(pagefile.MustNewMem(pagefile.DefaultPageSize), 256))
	tbl, err := db.CreateTable(reviewsSchema)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.EnsureIndex("mID"); err != nil {
		t.Fatal(err)
	}
	return core.NewEngine(db, core.Options{})
}

// reviewRow is review rID of movie rID%10 with the given rating.
func reviewRow(rID int64, rating float64) map[string]json.RawMessage {
	return map[string]json.RawMessage{
		"rID":    json.RawMessage(fmt.Sprint(rID)),
		"mID":    json.RawMessage(fmt.Sprint(rID % 10)),
		"rating": json.RawMessage(fmt.Sprint(rating)),
	}
}

func reviewRating(t *testing.T, e *core.Engine, rID int64) float64 {
	t.Helper()
	tbl, err := e.DB().Table("Reviews")
	if err != nil {
		t.Fatal(err)
	}
	row, err := tbl.Get(rID)
	if err != nil {
		t.Fatal(err)
	}
	return row[2].F
}

func updateRating(rID int64, rating float64) BatchOp {
	return BatchOp{Op: "update", Table: "Reviews", PK: &rID,
		Set: map[string]json.RawMessage{"rating": json.RawMessage(fmt.Sprint(rating))}}
}

// TestRouterRoutingColumns checks that a table routed by a non-pk column
// places rows by that column, that a broadcast update by primary key lands
// on the owning shard, and that a broadcast delete of a primary key no
// shard holds is a 404.  It runs over in-process shards and over shard
// servers (one-engine Routers with the same routing columns, as svrserve
// -shard-index starts them), which must answer a broadcast op for a row
// they do not hold with a miss, not a 404.
func TestRouterRoutingColumns(t *testing.T) {
	for _, overHTTP := range []bool{false, true} {
		name := "in-process"
		if overHTTP {
			name = "shard-servers"
		}
		t.Run(name, func(t *testing.T) {
			shards := make([]*core.Engine, 3)
			for i := range shards {
				shards[i] = newReviewsEngine(t)
			}
			opts := RouterOptions{Partitioner: "mod", RoutingColumns: reviewsRouting}
			var base string
			if overHTTP {
				backends := make([]Backend, len(shards))
				for i, e := range shards {
					addr := mustStart(t, New(e, Options{RoutingColumns: reviewsRouting}))
					backends[i] = NewHTTPBackend("http://"+addr, 0)
				}
				rt, err := NewRouter(backends, opts)
				if err != nil {
					t.Fatal(err)
				}
				addr, err := rt.Start("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() {
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					defer cancel()
					if err := rt.Shutdown(ctx); err != nil {
						t.Errorf("router shutdown: %v", err)
					}
				})
				base = "http://" + addr
			} else {
				_, base = startRouter(t, shards, opts)
			}
			checkRoutingColumns(t, base, shards)
		})
	}
}

func checkRoutingColumns(t *testing.T, base string, shards []*core.Engine) {
	// 30 reviews over 10 movies: review rID r belongs to movie r%10.
	var rows []map[string]json.RawMessage
	for r := int64(0); r < 30; r++ {
		rows = append(rows, reviewRow(r, 3))
	}
	if status, data := postJSON(t, base+"/v1/tables/Reviews/rows", InsertRowsRequest{Rows: rows}); status != http.StatusOK {
		t.Fatalf("insert status %d, body %s", status, data)
	}
	// Placement: every review of movie m lives on shard m mod 3, nowhere else.
	for m := int64(0); m < 10; m++ {
		owner := int(m % 3)
		for i, e := range shards {
			tbl, err := e.DB().Table("Reviews")
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			if err := tbl.LookupByColumn("mID", relation.Int(m), func(relation.Row) bool { n++; return true }); err != nil {
				if !errors.Is(err, relation.ErrNotFound) {
					t.Fatal(err)
				}
			}
			if i == owner && n != 3 {
				t.Fatalf("movie %d: owner shard %d holds %d reviews, want 3", m, owner, n)
			}
			if i != owner && n != 0 {
				t.Fatalf("movie %d: shard %d holds %d reviews, want 0", m, i, n)
			}
		}
	}

	// Broadcast update by pk: rID 17 exists only on movie 7's shard.
	status, data := postJSON(t, base+"/v1/batch", BatchRequest{Ops: []BatchOp{updateRating(17, 5)}})
	if status != http.StatusOK {
		t.Fatalf("broadcast update status %d, body %s", status, data)
	}
	if got := reviewRating(t, shards[7%3], 17); got != 5 {
		t.Fatalf("broadcast update did not land: rating = %v", got)
	}

	// A pk no shard owns is a 404 naming the op.
	missing := int64(999)
	status, data = postJSON(t, base+"/v1/batch", BatchRequest{Ops: []BatchOp{
		updateRating(18, 4),
		{Op: "delete", Table: "Reviews", PK: &missing},
	}})
	if status != http.StatusNotFound || !strings.Contains(string(data), "op 1") {
		t.Fatalf("broadcast delete of missing pk: status %d (body %s), want 404 naming op 1", status, data)
	}

	// The client's own ignore_missing lets its op miss everywhere without
	// hiding or failing the broadcast op next to it.
	ignored := BatchOp{Op: "delete", Table: "Reviews", PK: &missing, IgnoreMissing: true}
	status, data = postJSON(t, base+"/v1/batch", BatchRequest{Ops: []BatchOp{ignored, updateRating(19, 2)}})
	if status != http.StatusOK {
		t.Fatalf("ignore_missing delete + broadcast update: status %d, body %s", status, data)
	}
	var br BatchResponse
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatal(err)
	}
	if br.Applied != 2 || br.Matched != 1 || !slices.Equal(br.Missed, []int{0}) {
		t.Fatalf("batch response %+v, want applied 2, matched 1, missed [0]", br)
	}
	if got := reviewRating(t, shards[9%3], 19); got != 2 {
		t.Fatalf("broadcast update did not land: rating = %v", got)
	}
}

// TestSingleNodeBatchMisses checks a single node over a table routed by a
// non-pk column: the lone engine owns every row, so ops are not broadcast.
// An ignore_missing op on an absent row is a 200 that reports the miss; an
// op without it stops the batch at that op with a 404.
func TestSingleNodeBatchMisses(t *testing.T) {
	e := newReviewsEngine(t)
	base := "http://" + mustStart(t, New(e, Options{RoutingColumns: reviewsRouting}))
	rows := []map[string]json.RawMessage{reviewRow(1, 3), reviewRow(2, 3)}
	if status, data := postJSON(t, base+"/v1/tables/Reviews/rows", InsertRowsRequest{Rows: rows}); status != http.StatusOK {
		t.Fatalf("insert status %d, body %s", status, data)
	}

	absent := updateRating(99, 1)
	absent.IgnoreMissing = true
	status, data := postJSON(t, base+"/v1/batch", BatchRequest{Ops: []BatchOp{absent, updateRating(1, 4)}})
	if status != http.StatusOK {
		t.Fatalf("ignore_missing update of absent row: status %d, body %s", status, data)
	}
	var br BatchResponse
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatal(err)
	}
	if br.Applied != 2 || br.Matched != 1 || !slices.Equal(br.Missed, []int{0}) {
		t.Fatalf("batch response %+v, want applied 2, matched 1, missed [0]", br)
	}
	if got := reviewRating(t, e, 1); got != 4 {
		t.Fatalf("rID 1 rating = %v, want 4", got)
	}

	// Without ignore_missing the absent row stops the batch: the op after
	// it is not applied.
	status, data = postJSON(t, base+"/v1/batch", BatchRequest{Ops: []BatchOp{updateRating(99, 1), updateRating(2, 5)}})
	if status != http.StatusNotFound || !strings.Contains(string(data), "op 0") {
		t.Fatalf("update of absent row: status %d (body %s), want 404 naming op 0", status, data)
	}
	if got := reviewRating(t, e, 2); got != 3 {
		t.Fatalf("op after the failed one applied: rID 2 rating = %v, want 3", got)
	}
}
