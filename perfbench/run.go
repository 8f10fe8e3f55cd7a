package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"svrdb/internal/server"
)

// Shares of --seconds given to the search phases, and fixed counts. Every
// run of a workload applies the same number of updates before the same
// searches.
const (
	fixedShare     = 0.50 // fixed-rate searches (with batches on update-mixed)
	ladderShare    = 0.25 // capacity ladder, split evenly over its steps
	setupReps      = 3    // set-ups per run; setup_s is their median
	searchLimitMS  = 20.0 // search latency limit for the capacity
	maxConnections = 2    // client connections, capped at the CPU count
	warmRate       = 1e6  // an unthrottled pass: back to back on every connection
	warmQueries    = 200  // searches that warm caches and connections first
)

// searchRec is one search and what the oracle needs to judge it: the
// batches acknowledged before it was sent and the batches sent before its
// reply arrived bound the trace prefixes it may legitimately reflect.
type searchRec struct {
	q      int
	lo, hi int
	resp   *server.SearchResponse
}

// traffic sends one workload's traffic to a rig and keeps what it saw.
type traffic struct {
	r            *rig
	in           *inputs
	searchBodies [][]byte
	batchBodies  [][]byte
	nextQuery    int
	nextBatch    int
	acked        atomic.Int64 // batches acknowledged
	started      atomic.Int64 // batches sent
	recs         []searchRec
	checked      int // responses the oracle judged, over a whole run

	mu        sync.Mutex // guards the failure counts: phases may overlap
	attempted int
	failed    int
	errs      []string
}

func newTraffic(r *rig, in *inputs) (*traffic, error) {
	d := &traffic{r: r, in: in}
	for _, q := range in.queries {
		b, err := json.Marshal(q.request())
		if err != nil {
			return nil, err
		}
		d.searchBodies = append(d.searchBodies, b)
	}
	for i := range in.batches {
		b, err := in.batchBody(i)
		if err != nil {
			return nil, err
		}
		d.batchBodies = append(d.batchBodies, b)
	}
	return d, nil
}

// noteErr records a failure for the report (the first few only).
func (d *traffic) noteErr(err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failed++
	if len(d.errs) < 5 {
		d.errs = append(d.errs, err.Error())
	}
}

// searchPhase sends n searches at rate over conns connections.
func (d *traffic) searchPhase(ctx context.Context, rate float64, n, conns int) phaseResult {
	recs := make([]searchRec, n)
	base := d.nextQuery
	d.nextQuery += n
	samples := openLoop(ctx, rate, n, conns, func(i int) error {
		rec := &recs[i]
		rec.q = (base + i) % len(d.in.queries)
		rec.lo = int(d.acked.Load())
		var resp server.SearchResponse
		_, err := post(d.r.client, d.r.searchURL(), d.searchBodies[rec.q], &resp)
		rec.hi = int(d.started.Load())
		if err == nil {
			rec.resp = &resp
		}
		return err
	})
	d.recs = append(d.recs, recs...)
	return d.reduce(rate, samples)
}

// batchPhase sends n batches of the trace, in order, at rate over one
// connection (rate <= 0 sends them back to back).
func (d *traffic) batchPhase(ctx context.Context, rate float64, n int) phaseResult {
	base := d.nextBatch
	d.nextBatch += n
	do := func(i int) error {
		d.started.Add(1)
		if _, err := post(d.r.client, d.r.baseURL+"/v1/batch", d.batchBodies[(base+i)%len(d.batchBodies)], nil); err != nil {
			return err
		}
		d.acked.Add(1)
		return nil
	}
	if rate > 0 {
		return d.reduce(rate, openLoop(ctx, rate, n, 1, do))
	}
	samples := make([]sample, n)
	start := time.Now()
	for i := range samples {
		s := time.Since(start)
		samples[i] = sample{Due: s, Sent: s, Err: do(i)}
		samples[i].Done = time.Since(start)
	}
	return d.reduce(0, samples)
}

// reduce counts a phase's failures and summarizes it.
func (d *traffic) reduce(rate float64, samples []sample) phaseResult {
	d.mu.Lock()
	d.attempted += len(samples)
	d.mu.Unlock()
	for _, s := range samples {
		if s.Err != nil {
			d.noteErr(s.Err)
		}
	}
	return reduce(rate, samples)
}

// verify judges every recorded search against the oracle: a response is
// correct if it equals the exact answer under some trace prefix its window
// allows. Prefixes are replayed in order, so each score state is built once.
func (d *traffic) verify(o *oracle) (checked int) {
	idx := make([]int, 0, len(d.recs))
	for i, r := range d.recs {
		if r.resp != nil {
			idx = append(idx, i)
		}
	}
	sort.SliceStable(idx, func(a, b int) bool { return d.recs[idx[a]].lo < d.recs[idx[b]].lo })
	scores := d.in.initialScores()
	var pending []int
	k := 0
	for p := 0; k < len(idx) || len(pending) > 0; p++ {
		for k < len(idx) && d.recs[idx[k]].lo <= p {
			pending = append(pending, idx[k])
			k++
		}
		keep := pending[:0]
		for _, i := range pending {
			r := d.recs[i]
			err := o.check(d.in.queries[r.q], scores, r.resp)
			switch {
			case err == nil:
				checked++
			case r.hi <= p:
				checked++
				d.noteErr(fmt.Errorf("oracle: query %q: %w", d.in.queries[r.q].text, err))
			default:
				keep = append(keep, i)
			}
		}
		pending = keep
		for _, u := range d.in.batches[p%len(d.in.batches)] {
			scores[u.Doc] = u.NewScore
		}
	}
	return checked
}

// e2e is one end-to-end figure with its sample count.
type e2e struct {
	name  string
	value float64
	unit  string
	n     int
	note  string
}

// runResult is everything one run reports.
type runResult struct {
	spec    *workloadSpec
	in      *inputs
	metrics []e2e
	layers  []layerMetric
	spans   int
	d       *traffic // the run's failure and oracle counts
}

// repResult is what one set-up's measurement yields.
type repResult struct {
	fixed, upd, bb phaseResult
	ladder         []phaseResult // measured on the last set-up only
	setup          float64       // seconds
	heapMB         float64
	storeBytes     int64
}

// runUntraced measures the end-to-end metrics of one workload. It sets the
// workload up setupReps times and measures a share of every phase on each
// set-up, so a run samples the machine at several moments. Each reported
// latency median is the median of the one-second window medians of all
// set-ups, each tail is taken over the samples of all set-ups, and every
// other median is over the set-ups. The capacity ladder runs once, on the
// last set-up.
func runUntraced(spec *workloadSpec, seed int64, seconds float64, workDir string) (*runResult, error) {
	conns := min(maxConnections, runtime.NumCPU())
	total := &traffic{}
	var (
		reps []repResult
		in   *inputs
		o    *oracle
	)
	for i := 0; i < setupReps; i++ {
		in = nil
		base := heapInUse()
		r, rin, err := setUp(spec, seed, workDir, conns)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		in = rin
		if o == nil {
			if o, err = newOracle(in.corpus, in.queries); err != nil {
				r.close()
				return nil, err
			}
		}
		heap := heapInUse() - base
		rep, d, err := measureRep(r, in, spec, seconds/setupReps, conns, i)
		if err != nil {
			r.close()
			return nil, err
		}
		rep.heapMB = heap / (1 << 20)
		d.checked = d.verify(o)
		d.attempted++
		if err := r.close(); err != nil {
			d.noteErr(fmt.Errorf("teardown: %w", err))
		}
		total.attempted += d.attempted
		total.failed += d.failed
		total.errs = append(total.errs, d.errs...)
		total.checked += d.checked
		reps = append(reps, rep)
	}

	perRep := func(f func(repResult) float64) []float64 {
		out := make([]float64, len(reps))
		for i, r := range reps {
			out[i] = f(r)
		}
		return out
	}
	pooled := func(f func(repResult) phaseResult) summary {
		var v []float64
		for _, r := range reps {
			v = append(v, f(r).Latency.sorted...)
		}
		return summarize(v)
	}
	windows := func(f func(repResult) phaseResult) []float64 {
		var v []float64
		for _, r := range reps {
			v = append(v, f(r).Windows...)
		}
		return v
	}
	last := reps[len(reps)-1]
	setups := perRep(func(r repResult) float64 { return r.setup })
	searchTail := pooled(func(r repResult) phaseResult { return r.fixed })
	updTail := pooled(func(r repResult) phaseResult { return r.upd })
	searchWin := windows(func(r repResult) phaseResult { return r.fixed })
	updWin := windows(func(r repResult) phaseResult { return r.upd })
	var lateAll []float64
	for _, r := range reps {
		lateAll = append(lateAll, r.fixed.Late.sorted...)
	}
	late := summarize(lateAll)
	bbAll := pooled(func(r repResult) phaseResult { return r.bb })
	res := &runResult{spec: spec, in: in, d: total}
	res.metrics = []e2e{
		{name: "setup_s", value: median(setups), unit: "s", n: len(setups),
			note: fmt.Sprintf("median of %d set-ups: %s", len(setups), fmtList(setups, "%.3f"))},
		{name: "search_p50_ms", value: median(searchWin), unit: "ms", n: searchTail.N,
			note: fmt.Sprintf("median of %d window medians %s; open loop at %.0f/s, timed from due time",
				len(searchWin), fmtList(searchWin, "%.2f"), spec.searchRate)},
		{name: "search_p99_ms", value: searchTail.Tail, unit: "ms", n: searchTail.N,
			note: fmt.Sprintf("p%g over all set-ups, the highest percentile with >=%d samples beyond it", searchTail.TailP, minBeyond)},
		{name: "update_p50_ms", value: median(updWin), unit: "ms", n: updTail.N,
			note: fmt.Sprintf("median of %d window medians %s; %d-update batches at %.0f/s, timed from due time",
				len(updWin), fmtList(updWin, "%.1f"), batchSize, last.upd.Rate)},
		{name: "update_p99_ms", value: updTail.Tail, unit: "ms", n: updTail.N,
			note: fmt.Sprintf("p%g over all set-ups", updTail.TailP)},
		{name: "update_capacity_ops", value: median(perRep(func(r repResult) float64 { return batchSize * 1000 / r.bb.Service.P50 })), unit: "1/s", n: bbAll.N,
			note: fmt.Sprintf("score updates/s at the median back-to-back batch time, median over set-ups of %d batches each", last.bb.Sent)},
		{name: "heap_mb", value: median(perRep(func(r repResult) float64 { return r.heapMB })), unit: "MB", n: len(reps),
			note: "HeapInuse after set-up and a forced GC, less the benchmark's own before it; median over set-ups"},
		{name: "store_bytes_per_user_byte", value: float64(last.storeBytes) / float64(in.userBytes), unit: "ratio", n: 1,
			note: fmt.Sprintf("%d store bytes / %d row bytes", last.storeBytes, in.userBytes)},
		{name: "failed_frac", value: float64(total.failed) / float64(max(1, total.attempted)), unit: "ratio", n: total.attempted,
			note: fmt.Sprintf("%d failed of %d attempted; %d responses checked by the oracle", total.failed, total.attempted, total.checked)},
		{name: "loadgen.late_p99_ms", value: late.Tail, unit: "ms", n: late.N,
			note: "how late the generator sent, fixed-rate phases"},
	}
	if len(last.ladder) > 0 {
		res.metrics = slices.Insert(res.metrics, 3, e2e{name: "search_capacity_qps",
			value: capacityOf(last.ladder, searchLimitMS), unit: "1/s", n: len(last.ladder), note: ladderNote(last.ladder)})
	}
	return res, nil
}

// measureRep runs set-up number repNo's share of the phases: warm-up,
// fixed-rate searches (with the fixed-rate batches next to them on a mixed
// workload, after them otherwise), the back-to-back batches, and last the
// capacity ladder on the last set-up, so no timed phase follows the
// ladder's overload. A workload without a ladder gives the ladder's share to
// its fixed-rate phase. Each
// set-up starts at its own part of the query pool, so a run's searches cover
// the whole pool rather than one slice of it three times.
func measureRep(r *rig, in *inputs, spec *workloadSpec, seconds float64, conns, repNo int) (repResult, *traffic, error) {
	rep := repResult{setup: r.t.total.Seconds(), storeBytes: r.storeBytes()}

	d, err := newTraffic(r, in)
	if err != nil {
		return rep, nil, err
	}
	d.nextQuery = repNo * len(in.queries) / setupReps
	ctx := context.Background()
	// Warm caches and connections, not measured.
	d.searchPhase(ctx, warmRate, warmQueries, conns)
	d.attempted, d.failed = 0, 0
	d.recs = d.recs[:0]

	rates := spec.ladder()
	fixedSeconds := fixedShare * seconds
	if rates == nil {
		fixedSeconds += ladderShare * seconds
	}
	nSearch := int(spec.searchRate * fixedSeconds)
	nBatch := spec.batchesPerRep
	if spec.mixed {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Spread the batches over the search phase.
			rep.upd = d.batchPhase(ctx, float64(nBatch)/fixedSeconds, nBatch)
		}()
		rep.fixed = d.searchPhase(ctx, spec.searchRate, nSearch, max(1, conns-1))
		wg.Wait()
	} else {
		rep.fixed = d.searchPhase(ctx, spec.searchRate, nSearch, conns)
		rep.upd = d.batchPhase(ctx, spec.batchRate, nBatch)
	}
	rep.bb = d.batchPhase(ctx, 0, spec.backToBack)
	if repNo == setupReps-1 && rates != nil {
		stepSeconds := ladderShare * seconds * setupReps / float64(len(rates))
		for _, rate := range rates {
			res := d.searchPhase(ctx, rate, int(rate*stepSeconds), conns)
			if !res.meets(searchLimitMS) {
				// A step misses only if a second try misses too, so one
				// transient stall does not end the ladder.
				res = d.searchPhase(ctx, rate, int(rate*stepSeconds), conns)
			}
			rep.ladder = append(rep.ladder, res)
			if !res.meets(searchLimitMS) {
				break
			}
		}
	}
	return rep, d, nil
}

// heapInUse returns the heap in use after a forced collection, in bytes.
func heapInUse() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse)
}

// fmtList renders values for a report note.
func fmtList(values []float64, format string) string {
	parts := make([]string, len(values))
	for i, v := range values {
		parts[i] = fmt.Sprintf(format, v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// capacityOf reads the capacity off a ladder that stopped at its first
// miss: the offered rate at which the tail latency crosses the limit,
// interpolated linearly between the last step that met it and the first that
// did not. A tail that misses only barely puts the capacity near the missed
// step, so the figure moves smoothly instead of jumping a whole step when a
// step's verdict flips. A ladder that never misses reports its top rate; one
// that misses at once reports the first step's rate scaled down by how far
// its tail overshot.
func capacityOf(steps []phaseResult, limitMS float64) float64 {
	n := len(steps)
	if n == 0 {
		return 0
	}
	last := steps[n-1]
	if last.meets(limitMS) {
		return last.Rate
	}
	if n == 1 {
		return last.Rate * limitMS / math.Max(limitMS, last.Latency.Tail)
	}
	prev := steps[n-2]
	frac := 0.0 // missed by failing or falling behind, not by its tail
	if last.Latency.Tail > limitMS {
		frac = (limitMS - prev.Latency.Tail) / (last.Latency.Tail - prev.Latency.Tail)
	}
	return prev.Rate + (last.Rate-prev.Rate)*math.Max(0, math.Min(1, frac))
}

// ladderNote renders the capacity ladder's steps.
func ladderNote(steps []phaseResult) string {
	s := fmt.Sprintf("limit p-tail < %.0f ms:", searchLimitMS)
	for _, st := range steps {
		verdict := "ok"
		if !st.meets(searchLimitMS) {
			verdict = "miss"
		}
		s += fmt.Sprintf(" %.0f/s→p%g=%.1fms(n=%d,%s)", st.Rate, st.Latency.TailP, st.Latency.Tail, st.Latency.N, verdict)
	}
	return s
}
