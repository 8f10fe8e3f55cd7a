package server

import (
	"net/http"
	"path/filepath"
	"testing"

	"svrdb/internal/core"
	"svrdb/internal/relation"
	"svrdb/internal/view"
)

// TestStatsCatalogBytesSummed pins the durability section's catalog_bytes
// counter: each durable shard reports the catalog bytes its commits wrote,
// and the router's stats body carries their sum.
func TestStatsCatalogBytesSummed(t *testing.T) {
	spec := view.Spec{Components: []view.Component{view.OwnColumn("Docs", "val")}}
	dir := t.TempDir()
	var shards []*core.Engine
	var want float64
	for i := 0; i < 2; i++ {
		e, err := core.Open(filepath.Join(dir, "shard"+string(rune('a'+i))+".svrdb"),
			core.OpenOptions{Specs: map[string]view.Spec{"val": spec}})
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := e.DB().CreateTable(relation.Schema{
			Name: "Docs",
			Columns: []relation.Column{
				{Name: "id", Kind: relation.KindInt64},
				{Name: "body", Kind: relation.KindString},
				{Name: "val", Kind: relation.KindFloat64},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		for id := int64(1 + i); id <= 40; id += 2 {
			if err := tbl.Insert(relation.Row{relation.Int(id), relation.Str(routerDocBody(id)), relation.Float(routerDocVal(id))}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.CreateTextIndex("docs", "Docs", "body", core.IndexOptions{Method: core.MethodChunk, SpecName: "val"}); err != nil {
			t.Fatal(err)
		}
		if e.CatalogBytes() == 0 {
			t.Fatalf("shard %d committed an index build but reports no catalog bytes", i)
		}
		want += float64(e.CatalogBytes())
		shards = append(shards, e)
	}
	_, base := startRouter(t, shards, RouterOptions{})

	var stats struct {
		Durability map[string]float64 `json:"durability"`
	}
	if status := getJSON(t, base+"/v1/stats", &stats); status != http.StatusOK {
		t.Fatalf("stats status = %d", status)
	}
	if got := stats.Durability["catalog_bytes"]; got != want {
		t.Errorf("durability.catalog_bytes = %v, want the shards' sum %v", got, want)
	}
}
