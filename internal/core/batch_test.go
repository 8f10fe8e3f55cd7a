package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"svrdb/internal/relation"
	"svrdb/internal/workload"
)

// applyArchiveMutations performs a deterministic burst of structured
// updates — visit-count bumps (score changes through the view), description
// edits (content updates) and row deletions — against an archive database.
func applyArchiveMutations(t *testing.T, db *relation.DB, nMovies, rounds int) func() error {
	t.Helper()
	return func() error {
		stats, err := db.Table("Statistics")
		if err != nil {
			return err
		}
		movies, err := db.Table("Movies")
		if err != nil {
			return err
		}
		for i := 0; i < rounds; i++ {
			mID := int64(i%nMovies + 1)
			row, err := stats.Get(mID)
			if err != nil {
				return err
			}
			if err := stats.Update(mID, map[string]relation.Value{
				"nVisit": relation.Int(row[2].I + int64(500+i*37%900)),
			}); err != nil {
				return err
			}
			if i%7 == 0 {
				mrow, err := movies.Get(mID)
				if err != nil {
					return err
				}
				if err := movies.Update(mID, map[string]relation.Value{
					"desc": relation.Str(mrow[2].S + fmt.Sprintf(" remastered edition %d", i)),
				}); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// TestApplyBatchMatchesEagerMaintenance drives the same structured-update
// burst through two engines — one with eager per-change maintenance, one
// inside ApplyBatch — and requires identical search results afterwards.
func TestApplyBatchMatchesEagerMaintenance(t *testing.T) {
	const nMovies = 120
	for _, method := range []MethodKind{MethodID, MethodScoreThreshold, MethodChunk, MethodChunkTermScore} {
		t.Run(string(method), func(t *testing.T) {
			eagerEngine, eagerDB := newArchiveEngine(t, nMovies)
			batchEngine, batchDB := newArchiveEngine(t, nMovies)
			eagerIdx, err := eagerEngine.CreateTextIndex("m", "Movies", "desc", IndexOptions{Method: method, Spec: workload.ArchiveSpec()})
			if err != nil {
				t.Fatal(err)
			}
			batchIdx, err := batchEngine.CreateTextIndex("m", "Movies", "desc", IndexOptions{Method: method, Spec: workload.ArchiveSpec()})
			if err != nil {
				t.Fatal(err)
			}

			if err := applyArchiveMutations(t, eagerDB, nMovies, 300)(); err != nil {
				t.Fatalf("eager mutations: %v", err)
			}
			if err := batchEngine.ApplyBatch(applyArchiveMutations(t, batchDB, nMovies, 300)); err != nil {
				t.Fatalf("ApplyBatch: %v", err)
			}
			if err := eagerIdx.MaintenanceErr(); err != nil {
				t.Fatalf("eager maintenance: %v", err)
			}
			if err := batchIdx.MaintenanceErr(); err != nil {
				t.Fatalf("batch maintenance: %v", err)
			}

			for _, q := range []string{"golden gate", "san francisco", "amateur film", "remastered edition"} {
				eRes, err := eagerIdx.Search(SearchRequest{Query: q, K: 20})
				if err != nil {
					t.Fatalf("eager search %q: %v", q, err)
				}
				bRes, err := batchIdx.Search(SearchRequest{Query: q, K: 20})
				if err != nil {
					t.Fatalf("batch search %q: %v", q, err)
				}
				if len(eRes.Hits) != len(bRes.Hits) {
					t.Fatalf("query %q: %d hits (eager) vs %d (batched)", q, len(eRes.Hits), len(bRes.Hits))
				}
				for i := range eRes.Hits {
					if eRes.Hits[i].PK != bRes.Hits[i].PK || eRes.Hits[i].Score != bRes.Hits[i].Score {
						t.Errorf("query %q hit %d: eager (%d, %g) vs batched (%d, %g)",
							q, i, eRes.Hits[i].PK, eRes.Hits[i].Score, bRes.Hits[i].PK, bRes.Hits[i].Score)
					}
				}
			}
		})
	}
}

// TestApplyBatchPanicStillFlushes checks that a panic inside fn does not
// leave the indexes stuck in deferred-maintenance mode: the changes made
// before the panic flush, and later eager updates keep flowing.
func TestApplyBatchPanicStillFlushes(t *testing.T) {
	const nMovies = 50
	engine, db := newArchiveEngine(t, nMovies)
	idx, err := engine.CreateTextIndex("m", "Movies", "desc", IndexOptions{Spec: workload.ArchiveSpec()})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := db.Table("Statistics")
	if err != nil {
		t.Fatal(err)
	}
	bump := func(mID int64, delta int64) {
		row, err := stats.Get(mID)
		if err != nil {
			t.Fatal(err)
		}
		if err := stats.Update(mID, map[string]relation.Value{"nVisit": relation.Int(row[2].I + delta)}); err != nil {
			t.Fatal(err)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate out of ApplyBatch")
			}
		}()
		_ = engine.ApplyBatch(func() error {
			bump(1, 1_000_000)
			panic("boom")
		})
	}()
	// The pre-panic change must have flushed into the index...
	s, ok, err := idx.ScoreOf(1)
	if err != nil || !ok {
		t.Fatalf("ScoreOf(1): %v %v", ok, err)
	}
	if s < 500_000 {
		t.Errorf("pre-panic score change not flushed: score %g", s)
	}
	// ...and eager maintenance must work again afterwards.
	bump(2, 2_000_000)
	if err := idx.MaintenanceErr(); err != nil {
		t.Fatal(err)
	}
	s2, ok, err := idx.ScoreOf(2)
	if err != nil || !ok || s2 < 1_000_000 {
		t.Errorf("eager update after recovered panic not applied: score %g, %v, %v", s2, ok, err)
	}
}

// TestApplyBatchPropagatesErrors checks that a failing mutation function
// surfaces its error and that the engine stays usable.
func TestApplyBatchPropagatesErrors(t *testing.T) {
	engine, _ := newArchiveEngine(t, 50)
	idx, err := engine.CreateTextIndex("m", "Movies", "desc", IndexOptions{Spec: workload.ArchiveSpec()})
	if err != nil {
		t.Fatal(err)
	}
	wantErr := fmt.Errorf("mutation failed")
	if err := engine.ApplyBatch(func() error { return wantErr }); err == nil {
		t.Fatal("ApplyBatch swallowed the mutation error")
	}
	if _, err := idx.Search(SearchRequest{Query: "golden gate", K: 5}); err != nil {
		t.Fatalf("engine unusable after failed batch: %v", err)
	}
}

// TestGroupCommitCoalesces checks the ApplyBatch group commit: concurrent
// batches produce strictly fewer pagefile commits than batches, and every
// batch's writes are durable (visible after reopen) once ApplyBatch
// returns.
func TestGroupCommitCoalesces(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/group.svrdb"
	e, err := Open(path, OpenOptions{PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.DB().CreateTable(relation.Schema{
		Name: "KV",
		Columns: []relation.Column{
			{Name: "k", Kind: relation.KindInt64},
			{Name: "v", Kind: relation.KindInt64},
		},
	}); err != nil {
		t.Fatal(err)
	}
	// One committed batch so the table exists on disk before the storm.
	if err := e.ApplyBatch(func() error {
		tbl, err := e.DB().Table("KV")
		if err != nil {
			return err
		}
		return tbl.Insert(relation.Row{relation.Int(-1), relation.Int(0)})
	}); err != nil {
		t.Fatal(err)
	}

	// Deterministic fan-in: a blocker batch holds the batch lock while
	// `writers` further ApplyBatch callers queue up behind it (visible via
	// the commit-waiter counter), then the blocker is released.  The
	// blocker and every writer except the last defer their commit to the
	// next caller, so the whole group must land in exactly one pagefile
	// commit.
	const writers = 8
	before := e.Pool().File().Stats().Commits
	blockerIn := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, writers+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs[writers] = e.ApplyBatch(func() error {
			close(blockerIn)
			<-release
			tbl, err := e.DB().Table("KV")
			if err != nil {
				return err
			}
			return tbl.Insert(relation.Row{relation.Int(1000), relation.Int(0)})
		})
	}()
	<-blockerIn
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			err := e.ApplyBatch(func() error {
				tbl, err := e.DB().Table("KV")
				if err != nil {
					return err
				}
				return tbl.Insert(relation.Row{relation.Int(int64(w)), relation.Int(int64(w))})
			})
			errs[w] = err
		}(w)
	}
	// Wait until every writer is queued on the batch lock, so the blocker
	// observes them and defers its commit.
	for e.commitWaiters.Load() < writers {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	commits := e.Pool().File().Stats().Commits - before
	if commits != 1 {
		t.Fatalf("group commit: %d commits for %d concurrent batches, want 1", commits, writers+1)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Every batch that returned is durable.
	re, err := Open(path, OpenOptions{PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	tbl, err := re.DB().Table("KV")
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.Len(); got != writers+2 {
		t.Fatalf("reopened table holds %d rows, want %d", got, writers+2)
	}
}
