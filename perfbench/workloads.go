package main

import (
	"fmt"
	"math"

	"svrdb/internal/core"
)

// workloadSpec fixes how one workload configures and drives the system.
// Rates are offered loads of an open loop: searches per second, and
// /v1/batch requests of batchSize score updates per second.
type workloadSpec struct {
	name       string
	method     core.MethodKind
	durable    bool // core.Open on a file: fsync on every commit, group commit
	reopen     bool // build, close, and reopen with servePool before serving
	servePool  int  // buffer-pool pages when serving a reopened file
	shards     int  // 0 serves one engine; n routes over n in-process shards
	termScores bool // searches ask for combined SVR + TF-IDF ranking

	searchRate    float64 // fixed-rate search phase
	ladderBase    float64 // first rate of the capacity ladder; 0 runs none
	batchRate     float64 // fixed-rate batches after the searches (not on mixed)
	mixed         bool    // batches run next to the fixed-rate searches instead
	batchesPerRep int     // fixed-rate batches per set-up
	backToBack    int     // batches per set-up sent back to back for the update capacity
}

// poolPages sizes the buffer pool of every engine while it is loaded and
// built, and while it serves unless the workload reopens it smaller: 32768
// pages of 8 KiB hold the whole ~190 MB store of one engine.
const poolPages = 32768

// workloads lists the benchmark's traffic mixes. Every bounded end-to-end
// metric is reported on every workload, so the search workloads run an
// update tail after their fixed-rate searches. update-mixed runs no capacity
// ladder: it spends that time on its fixed-rate mix, so its two latencies
// rest on more samples spread over more of the run. Fixed rates
// keep every resource well below saturation (durable batches take ~20-30 ms,
// searches 3-4 ms), so a passing slowdown of the machine does not turn into
// a backlog.
var workloads = []*workloadSpec{
	{
		// The read path with no I/O and no writes during the searches.
		name: "search-warm", method: core.MethodChunk,
		searchRate: 100, ladderBase: 200, batchRate: 40, batchesPerRep: 48, backToBack: 64,
	},
	{
		// Searches next to a steady stream of durable score-update batches.
		name: "update-mixed", method: core.MethodChunk, durable: true,
		searchRate: 60, mixed: true, batchesPerRep: 48, backToBack: 16,
	},
	{
		// Data far larger than the buffer pool: misses, evictions, file reads.
		name: "search-spill", method: core.MethodID, durable: true, reopen: true, servePool: 32,
		searchRate: 100, ladderBase: 100, batchRate: 20, batchesPerRep: 48, backToBack: 16,
	},
	{
		// The router's termstats gather, scatter and merge over two shards,
		// on the TermScore fancy-list path.
		name: "search-routed", method: core.MethodChunkTermScore, shards: 2, termScores: true,
		searchRate: 100, ladderBase: 200, batchRate: 40, batchesPerRep: 48, backToBack: 64,
	},
}

// ladderSteps and ladderRatio fix the capacity ladder: ladderSteps rates
// from the workload's base, each ladderRatio times the one before.
const (
	ladderSteps = 8
	ladderRatio = 1.2
)

// ladder returns the workload's capacity ladder, nil if it runs none.
func (w *workloadSpec) ladder() []float64 {
	if w.ladderBase == 0 {
		return nil
	}
	rates := make([]float64, ladderSteps)
	r := w.ladderBase
	for i := range rates {
		rates[i] = math.Round(r)
		r *= ladderRatio
	}
	return rates
}

func workloadByName(name string) (*workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// flushPolicy states how the workload's writes reach storage.
func (w *workloadSpec) flushPolicy() string {
	if w.durable {
		return "durable file: WAL append + fsync on every commit, concurrent batches group-commit (as shipped)"
	}
	return "in-memory page file: no fsync"
}
