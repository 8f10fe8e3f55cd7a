// Command svrserve runs the SVR engine as an HTTP daemon: it builds the
// Internet-Archive-style movie database (the paper's running example),
// creates a text index over the movie descriptions, and serves the JSON API
// of internal/server until SIGINT/SIGTERM triggers a graceful shutdown —
// in-flight requests drain, then the engines close with their pin audit.
//
// Usage:
//
//	svrserve -addr :8080 -movies 2000 -method chunk
//	svrserve -addr :8080 -data archive.svrdb   # build once, serve forever
//
//	curl localhost:8080/healthz
//	curl -d '{"query":"golden gate","k":5,"load_rows":true}' \
//	     localhost:8080/v1/indexes/movies_desc/search
//	curl -d '{"ops":[{"op":"update","table":"Statistics","pk":7,"set":{"nVisit":9000}}]}' \
//	     localhost:8080/v1/batch
//	curl localhost:8080/v1/stats
//
// Sharded serving.  The daemon is always the same front end, a router over
// shard backends; one in-process engine is the default.  It runs three more
// shapes:
//
//	svrserve -addr :8080 -shards 4                       # 4 in-process shards
//
//	svrserve -addr :8081 -shard-index 0 -shard-count 2   # shard server 0
//	svrserve -addr :8082 -shard-index 1 -shard-count 2   # shard server 1
//	svrserve -addr :8080 \
//	    -backends http://127.0.0.1:8081,http://127.0.0.1:8082 -hedge 50ms
//
// A shard server builds only its partition of the dataset (the generator's
// random stream is shared, so the shards exactly partition the single-node
// dataset); over several shards the router scatter-gathers searches — with
// cluster-global IDF, so ranking is identical to a single node — and routes
// writes to the owning shard.  A dead shard degrades searches to partial
// results instead of failing them.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"svrdb/internal/core"
	"svrdb/internal/relation"
	"svrdb/internal/server"
	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/pagefile"
	"svrdb/internal/view"
	"svrdb/internal/workload"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		movies    = flag.Int("movies", 2000, "number of movies in the example dataset")
		method    = flag.String("method", "chunk", "index method: id, score, score-threshold, chunk, id-termscore, chunk-termscore")
		poolPages = flag.Int("pool", 16384, "buffer pool capacity in pages")
		seed      = flag.Int64("seed", 11, "random seed for the example dataset")
		drainWait = flag.Duration("drain", 30*time.Second, "how long shutdown waits for in-flight requests")
		dataPath  = flag.String("data", "", "durable data file; empty serves from memory.  A fresh file is built once, an existing file is recovered and served without rebuilding.  With several in-process shards, each shard appends .shard-N")

		shards      = flag.Int("shards", 1, "without -backends: number of in-process shard engines")
		backendsCSV = flag.String("backends", "", "comma-separated shard server URLs to route across (e.g. http://127.0.0.1:8081,http://127.0.0.1:8082); empty serves in-process engines")
		hedge       = flag.Duration("hedge", 0, "with -backends: issue a hedge search request after this latency (0 disables)")
		partitioner = flag.String("partitioner", "", "partitioner routing rows to shards (default hash); must match across router and shard servers")

		shardIndex = flag.Int("shard-index", -1, "serve as shard N of -shard-count: build and serve only this shard's slice of the dataset")
		shardCount = flag.Int("shard-count", 0, "total shard count that -shard-index is part of")
	)
	flag.Parse()

	cfg := config{
		addr:        *addr,
		movies:      *movies,
		method:      *method,
		poolPages:   *poolPages,
		seed:        *seed,
		drainWait:   *drainWait,
		dataPath:    *dataPath,
		shards:      *shards,
		backends:    *backendsCSV,
		hedge:       *hedge,
		partitioner: *partitioner,
		shardIndex:  *shardIndex,
		shardCount:  *shardCount,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "svrserve:", err)
		os.Exit(1)
	}
}

type config struct {
	addr      string
	movies    int
	method    string
	poolPages int
	seed      int64
	drainWait time.Duration
	dataPath  string

	shards      int
	backends    string
	hedge       time.Duration
	partitioner string

	shardIndex int
	shardCount int
}

// archiveRoutingColumns is the placement rule for the example database:
// Movies route by primary key, Reviews colocate with their movie (the SVR
// spec averages a movie's local reviews), and Statistics' primary key sID
// equals mID so default pk routing already colocates it.
func archiveRoutingColumns() map[string]string {
	return map[string]string{"Reviews": "mID"}
}

// shardKeep returns the predicate selecting shard idx's movies under the
// named partitioner, or nil for an unsharded build.
func shardKeep(partitioner string, idx, count int) (func(int64) bool, error) {
	if count <= 1 {
		return nil, nil
	}
	part, err := core.PartitionerByName(partitioner)
	if err != nil {
		return nil, err
	}
	return func(mID int64) bool { return part.Shard(mID, count) == idx }, nil
}

// newEngine builds or reopens an engine holding the (possibly filtered)
// example dataset.  With a data path the engine is durable: the first run
// ingests the dataset and every later run recovers the committed state
// (replaying the WAL if the last run was killed) and serves it without
// rebuilding.
func newEngine(cfg config, dataPath string, keep func(int64) bool) (*core.Engine, error) {
	params := workload.DefaultArchiveParams()
	params.NumMovies = cfg.movies
	params.Seed = cfg.seed

	if dataPath == "" {
		pool := buffer.MustNew(pagefile.MustNewMem(pagefile.DefaultPageSize), cfg.poolPages)
		db := relation.NewDB(pool)
		n, err := workload.BuildArchiveDBFiltered(db, params, keep)
		if err != nil {
			return nil, err
		}
		fmt.Printf("built archive database slice: %d of %d movies\n", n, cfg.movies)
		engine := core.NewEngine(db, core.Options{})
		// Registered (not just passed inline) so POST /v1/indexes can
		// resolve "archive" for online index creation.
		engine.RegisterSpec("archive", workload.ArchiveSpec())
		if _, err := engine.CreateTextIndex("movies_desc", "Movies", "desc", core.IndexOptions{
			Method:   core.MethodKind(cfg.method),
			SpecName: "archive",
		}); err != nil {
			return nil, err
		}
		return engine, nil
	}

	open := time.Now()
	engine, err := core.Open(dataPath, core.OpenOptions{
		Specs:     map[string]view.Spec{"archive": workload.ArchiveSpec()},
		PoolPages: cfg.poolPages,
	})
	if err != nil {
		return nil, err
	}
	if len(engine.TextIndexNames()) > 0 {
		fs := engine.Pool().File().Stats()
		fmt.Printf("recovered %s in %s (%d WAL replays, %d torn pages detected)\n",
			dataPath, time.Since(open).Round(time.Millisecond), fs.Recoveries, fs.TornPages)
		return engine, nil
	}
	n, err := workload.BuildArchiveDBFiltered(engine.DB(), params, keep)
	if err != nil {
		engine.Close()
		return nil, err
	}
	fmt.Printf("built archive database slice into %s: %d of %d movies\n", dataPath, n, cfg.movies)
	if _, err := engine.CreateTextIndex("movies_desc", "Movies", "desc", core.IndexOptions{
		Method:   core.MethodKind(cfg.method),
		Spec:     workload.ArchiveSpec(),
		SpecName: "archive",
	}); err != nil {
		engine.Close()
		return nil, err
	}
	return engine, nil
}

// newDaemon builds the front end: a router over remote shard servers when
// -backends is given, otherwise over in-process engines — one per -shards,
// or the single slice -shard-index names.
func newDaemon(cfg config) (*server.Router, error) {
	var backends []server.Backend
	closeAll := func() {
		for _, b := range backends {
			b.Close()
		}
	}
	switch {
	case cfg.backends != "":
		for _, u := range strings.Split(cfg.backends, ",") {
			u = strings.TrimSpace(u)
			if u == "" {
				continue
			}
			backends = append(backends, server.NewHTTPBackend(u, cfg.hedge))
		}
		if len(backends) == 0 {
			return nil, fmt.Errorf("-backends parsed to zero URLs")
		}
		fmt.Printf("routing across %d shard servers (hedge %s)\n", len(backends), cfg.hedge)
	case cfg.shardIndex >= 0:
		if cfg.shardCount < 1 || cfg.shardIndex >= cfg.shardCount {
			return nil, fmt.Errorf("-shard-index %d requires -shard-count > %d", cfg.shardIndex, cfg.shardIndex)
		}
		keep, err := shardKeep(cfg.partitioner, cfg.shardIndex, cfg.shardCount)
		if err != nil {
			return nil, err
		}
		fmt.Printf("serving shard %d of %d\n", cfg.shardIndex, cfg.shardCount)
		engine, err := newEngine(cfg, cfg.dataPath, keep)
		if err != nil {
			return nil, err
		}
		backends = append(backends, server.NewEngineBackend(fmt.Sprintf("shard-%d", cfg.shardIndex), engine, true))
	default:
		if cfg.shards < 1 {
			return nil, fmt.Errorf("-shards must be at least 1")
		}
		for i := 0; i < cfg.shards; i++ {
			keep, err := shardKeep(cfg.partitioner, i, cfg.shards)
			if err != nil {
				closeAll()
				return nil, err
			}
			dataPath := cfg.dataPath
			if dataPath != "" && cfg.shards > 1 {
				dataPath = fmt.Sprintf("%s.shard-%d", dataPath, i)
			}
			engine, err := newEngine(cfg, dataPath, keep)
			if err != nil {
				closeAll()
				return nil, err
			}
			backends = append(backends, server.NewEngineBackend(fmt.Sprintf("shard-%d", i), engine, true))
		}
		if cfg.shards > 1 {
			fmt.Printf("routing across %d in-process shards\n", len(backends))
		}
	}
	rt, err := server.NewRouter(backends, server.RouterOptions{
		ReadTimeout:    30 * time.Second,
		Partitioner:    cfg.partitioner,
		RoutingColumns: archiveRoutingColumns(),
	})
	if err != nil {
		closeAll()
		return nil, err
	}
	return rt, nil
}

func run(cfg config) error {
	d, err := newDaemon(cfg)
	if err != nil {
		return err
	}
	bound, err := d.Start(cfg.addr)
	if err != nil {
		return err
	}
	fmt.Printf("serving on http://%s (SIGINT/SIGTERM to drain and stop)\n", bound)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case <-stop:
		fmt.Println("draining...")
	case <-d.Done():
		// The accept loop died on its own (e.g. fd exhaustion): surface it
		// now instead of serving nothing until an operator notices.
		err := d.ServeErr()
		ctx, cancel := context.WithTimeout(context.Background(), cfg.drainWait)
		defer cancel()
		if shutdownErr := d.Shutdown(ctx); shutdownErr != nil {
			return shutdownErr
		}
		if err == nil {
			err = fmt.Errorf("server stopped unexpectedly")
		}
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.drainWait)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		return err
	}
	fmt.Println("shutdown complete (in-flight requests drained, pin audit clean)")
	return nil
}
