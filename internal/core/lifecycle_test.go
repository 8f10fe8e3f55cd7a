package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"svrdb/internal/relation"
	"svrdb/internal/workload"
)

// lifecycleStormQueries is the probe mix the lifecycle torture tests run
// against the index being created or dropped.
var lifecycleStormQueries = []SearchRequest{
	{Query: "golden gate", K: 10},
	{Query: "san francisco", K: 8, Disjunctive: true},
}

// startStatisticsStorm launches a writer goroutine pushing continuous
// update batches through ApplyBatch until stop closes.  The returned wait
// function joins the goroutine and reports its first error.
func startStatisticsStorm(e *Engine, db *relation.DB, nMovies int, stop chan struct{}) func() error {
	errCh := make(chan error, 1)
	go func() {
		errCh <- func() error {
			stats, err := db.Table("Statistics")
			if err != nil {
				return err
			}
			for b := 0; ; b++ {
				select {
				case <-stop:
					return nil
				default:
				}
				err := e.ApplyBatch(func() error {
					for j := 0; j < 8; j++ {
						pk := int64((b*8+j)%nMovies + 1)
						row, err := stats.Get(pk)
						if err != nil {
							return err
						}
						return stats.Update(pk, map[string]relation.Value{
							"nVisit": relation.Int(row[2].I + int64(1000*(j+1))),
						})
					}
					return nil
				})
				if err != nil {
					return err
				}
			}
		}()
	}()
	return func() error { return <-errCh }
}

// TestOnlineCreateIndexUnderLoad creates an index on a live engine while a
// query storm polls for it by name and a writer storm pushes batches.  The
// lifecycle contract under test: every lookup before publish cleanly misses
// with ErrNotFound, the publish is monotonic (once seen, never unseen), every
// search after publish succeeds, and the published index is byte-identical
// to one built on the quiesced engine — i.e. the backfill plus the racing
// batches lost nothing.
func TestOnlineCreateIndexUnderLoad(t *testing.T) {
	for _, method := range []MethodKind{MethodID, MethodChunk} {
		method := method
		t.Run(string(method), func(t *testing.T) {
			const nMovies = 120
			engine, db := newArchiveEngine(t, nMovies)
			engine.RegisterSpec("archive", workload.ArchiveSpec())

			stop := make(chan struct{})
			stormWait := startStatisticsStorm(engine, db, nMovies, stop)

			var published atomic.Bool
			var wg sync.WaitGroup
			const readers = 4
			for r := 0; r < readers; r++ {
				r := r
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						// Load the flag before the lookup: another reader may
						// publish between a failed lookup and a later load,
						// and only a miss after an observed publish is a bug.
						seen := published.Load()
						ti, err := engine.TextIndex("live")
						if err != nil {
							if !errors.Is(err, relation.ErrNotFound) {
								t.Errorf("reader %d: pre-publish lookup failed with %v, want ErrNotFound", r, err)
								return
							}
							if seen {
								t.Errorf("reader %d: index vanished after publish", r)
								return
							}
							continue
						}
						published.Store(true)
						if _, err := ti.Search(lifecycleStormQueries[(i+r)%len(lifecycleStormQueries)]); err != nil {
							t.Errorf("reader %d: post-publish search failed: %v", r, err)
							return
						}
					}
				}()
			}

			if _, err := engine.CreateTextIndex("live", "Movies", "desc", IndexOptions{
				Method:   method,
				SpecName: "archive",
			}); err != nil {
				t.Fatalf("online create: %v", err)
			}
			// Let the readers hammer the published index a little before
			// stopping the storm.
			for i := 0; i < 50 && !published.Load(); i++ {
				ti, err := engine.TextIndex("live")
				if err != nil {
					t.Fatalf("lookup after create returned: %v", err)
				}
				if _, err := ti.Search(lifecycleStormQueries[0]); err != nil {
					t.Fatalf("search after create returned: %v", err)
				}
			}
			close(stop)
			wg.Wait()
			if err := stormWait(); err != nil {
				t.Fatalf("writer storm: %v", err)
			}

			// With the engine quiesced, the online-built index must answer
			// exactly like a freshly built reference over the same state.
			live, err := engine.TextIndex("live")
			if err != nil {
				t.Fatal(err)
			}
			ref, err := engine.CreateTextIndex("ref", "Movies", "desc", IndexOptions{
				Method:   method,
				SpecName: "archive",
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range lifecycleStormQueries {
				got, err := live.Search(q)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.Search(q)
				if err != nil {
					t.Fatal(err)
				}
				if serializeResult(got) != serializeResult(want) {
					t.Errorf("query %q: online-built index diverges from reference:\n  got  %s\n  want %s",
						q.Query, serializeResult(got), serializeResult(want))
				}
			}
			if err := live.MaintenanceErr(); err != nil {
				t.Errorf("maintenance errors on online-built index: %v", err)
			}
			if err := engine.Close(); err != nil {
				t.Errorf("Close (includes pin audit): %v", err)
			}
		})
	}
}

// TestOnlineDropIndexUnderLoad drops an index out from under a query+write
// storm.  No reader may ever observe a half-removed index: a search either
// completes normally or fails with ErrNotFound (by-name lookup or a stale
// handle), never ErrClosed or a torn result.  Afterwards the name is free
// for reuse, the recreated index matches a reference, and the engine's pin
// audit passes — the drop released every page it retired.
func TestOnlineDropIndexUnderLoad(t *testing.T) {
	const nMovies = 120
	engine, db := newArchiveEngine(t, nMovies)
	engine.RegisterSpec("archive", workload.ArchiveSpec())
	ti, err := engine.CreateTextIndex("live", "Movies", "desc", IndexOptions{
		Method:   MethodChunk,
		SpecName: "archive",
	})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	stormWait := startStatisticsStorm(engine, db, nMovies, stop)

	var sawNotFound atomic.Int64
	var wg sync.WaitGroup
	const readers = 4
	for r := 0; r < readers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Alternate between the stale handle and a fresh lookup:
				// both must degrade to ErrNotFound once the drop lands.
				h := ti
				if i%2 == 0 {
					var err error
					h, err = engine.TextIndex("live")
					if err != nil {
						if !errors.Is(err, relation.ErrNotFound) {
							t.Errorf("reader %d: lookup failed with %v, want ErrNotFound", r, err)
							return
						}
						sawNotFound.Add(1)
						continue
					}
				}
				res, err := h.Search(lifecycleStormQueries[(i+r)%len(lifecycleStormQueries)])
				if err != nil {
					if !errors.Is(err, relation.ErrNotFound) {
						t.Errorf("reader %d: search racing drop failed with %v, want ErrNotFound", r, err)
						return
					}
					sawNotFound.Add(1)
					continue
				}
				// A successful search must be whole: scores sorted, no
				// zero-hit degenerate answers for the common query.
				for j := 1; j < len(res.Hits); j++ {
					if res.Hits[j].Score > res.Hits[j-1].Score {
						t.Errorf("reader %d: unsorted hits from a search racing the drop", r)
						return
					}
				}
			}
		}()
	}

	if err := engine.DropTextIndex("live"); err != nil {
		t.Fatalf("online drop: %v", err)
	}
	// Keep the readers running until at least one of them observes the
	// dropped state; sleeping yields the CPU so they actually get scheduled
	// on single-core hosts.
	deadline := time.Now().Add(10 * time.Second)
	for sawNotFound.Load() == 0 && time.Now().Before(deadline) {
		if _, err := engine.TextIndex("live"); !errors.Is(err, relation.ErrNotFound) {
			t.Fatalf("lookup after drop = %v, want ErrNotFound", err)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if err := stormWait(); err != nil {
		t.Fatalf("writer storm: %v", err)
	}
	if sawNotFound.Load() == 0 {
		t.Error("no reader ever observed the dropped index; the race window was never exercised")
	}

	// The stale handle keeps failing with ErrNotFound, not ErrClosed.
	if _, err := ti.Search(lifecycleStormQueries[0]); !errors.Is(err, relation.ErrNotFound) {
		t.Errorf("stale handle search after drop = %v, want ErrNotFound", err)
	}
	if _, _, err := ti.TermStats("golden gate"); !errors.Is(err, relation.ErrNotFound) {
		t.Errorf("stale handle termstats after drop = %v, want ErrNotFound", err)
	}

	// The name is free again and the replacement behaves like a fresh build.
	re, err := engine.CreateTextIndex("live", "Movies", "desc", IndexOptions{
		Method:   MethodChunk,
		SpecName: "archive",
	})
	if err != nil {
		t.Fatalf("recreate after drop: %v", err)
	}
	ref, err := engine.CreateTextIndex("ref", "Movies", "desc", IndexOptions{
		Method:   MethodChunk,
		SpecName: "archive",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range lifecycleStormQueries {
		got, err := re.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		if serializeResult(got) != serializeResult(want) {
			t.Errorf("query %q: recreated index diverges from reference", q.Query)
		}
	}
	// Close runs the pool pin audit: the drop must have released every page
	// the dropped index held or retired.
	if err := engine.Close(); err != nil {
		t.Errorf("Close (includes pin audit): %v", err)
	}
}

// TestDropFreesPages pins the resource side of the drop contract: dropping
// an index returns its pages to the pagefile free list, so a drop+recreate
// cycle reuses storage instead of leaking it.
func TestDropFreesPages(t *testing.T) {
	engine, _ := newArchiveEngine(t, 150)
	engine.RegisterSpec("archive", workload.ArchiveSpec())
	// netGrow is the cumulative count of pages carved from fresh file space
	// (allocations not satisfied from the free list).
	netGrow := func() uint64 {
		s := engine.Pool().File().Stats()
		return s.Allocs - s.Reuses
	}

	base := netGrow()
	if _, err := engine.CreateTextIndex("cycle", "Movies", "desc", IndexOptions{
		Method: MethodChunk, SpecName: "archive",
	}); err != nil {
		t.Fatal(err)
	}
	firstBuild := netGrow() - base
	freesBefore := engine.Pool().File().Stats().Frees
	if err := engine.DropTextIndex("cycle"); err != nil {
		t.Fatal(err)
	}
	if freed := engine.Pool().File().Stats().Frees - freesBefore; freed == 0 {
		t.Fatal("drop returned no pages to the pagefile free list")
	}
	// Recreating the same index must be satisfiable almost entirely from the
	// freed pages: the pagefile may grow by a handful of fresh pages
	// (allocation order differs), but nothing near a second full build.
	mid := netGrow()
	if _, err := engine.CreateTextIndex("cycle", "Movies", "desc", IndexOptions{
		Method: MethodChunk, SpecName: "archive",
	}); err != nil {
		t.Fatal(err)
	}
	if grown := netGrow() - mid; grown > firstBuild/4 {
		t.Errorf("rebuild after drop grew the file by %d fresh pages (first build %d); drop is not freeing pages",
			grown, firstBuild)
	}
	if err := engine.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}
