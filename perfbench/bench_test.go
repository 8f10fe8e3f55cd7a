package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"svrdb/internal/server"
	"svrdb/internal/workload"
)

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {95, 10}, {99, 10}, {10, 1}, {11, 2}, {0, 1},
	} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %g, want 0", got)
	}
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1000, 99}, // rank 990, 10 beyond
		{999, 95},  // p99 would leave 9
		{200, 95},  // rank 190, 10 beyond
		{199, 90},
		{100, 90},
		{40, 75},
		{20, 50},
		{5, 50}, // nothing qualifies: the median
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if c.n >= 20 && c.n-rank(c.want, c.n) < minBeyond {
			t.Errorf("n=%d: p%g leaves fewer than %d samples beyond", c.n, c.want, minBeyond)
		}
	}
	s := summarize([]float64{5, 1, 4, 2, 3})
	if s.P50 != 3 || s.Max != 5 || s.N != 5 {
		t.Errorf("summarize = %+v", s)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Reference values from Python's statistics.quantiles(values, n=4).
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 2.7, 9.4, 5.5}, [3]float64{2.8, 4.3, 8.425}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	} {
		q1, q2, q3, ok := quartiles(c.in)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if !ok || math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value should not be ok")
	}
}

// TestOpenLoopTimesFromDueTime stalls a fake handler on the first request:
// the requests due behind it on the single connection must show the wait
// in their latency, not just their own service time.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 200 * time.Millisecond
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()
	client := newClient(1)
	samples := openLoop(t.Context(), 100, 10, 1, func(i int) error {
		_, err := post(client, srv.URL, []byte(`{}`), nil)
		return err
	})
	for i, s := range samples {
		if s.Err != nil {
			t.Fatalf("request %d: %v", i, s.Err)
		}
		if want := time.Duration(i) * 10 * time.Millisecond; s.Due != want {
			t.Errorf("request %d due at %v, want %v", i, s.Due, want)
		}
	}
	// Request 1 was due 10ms in but could only be sent once the stalled
	// request 0 returned: its latency carries ~190ms of queueing.
	if got := samples[1].Latency(); got < stall-20*time.Millisecond {
		t.Errorf("request 1 latency %v: the stall's queueing delay is missing", got)
	}
	if got := samples[1].Late(); got < stall-20*time.Millisecond {
		t.Errorf("request 1 sent %v late, want about %v", got, stall)
	}
	if got := samples[1].Done - samples[1].Sent; got > stall/2 {
		t.Errorf("request 1 service time %v should be small", got)
	}
	res := reduce(100, samples)
	if res.Latency.Max < ms(stall) {
		t.Errorf("phase max latency %.1fms below the %v stall", res.Latency.Max, stall)
	}
}

// TestWindowMedians splits a phase into one-second windows by schedule
// position: a slow second moves only its own window's median.
func TestWindowMedians(t *testing.T) {
	lat := []float64{1, 2, 3, 50, 60, 70, 4, 5, 6, 9}
	got := windowMedians(3, lat)
	want := []float64{2, 60, 5.5}
	if len(got) != len(want) {
		t.Fatalf("windowMedians = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("window %d median %g, want %g", i, got[i], want[i])
		}
	}
	if got := median(got); got != 5.5 {
		t.Errorf("median of window medians %g, want 5.5", got)
	}
	if got := windowMedians(100, []float64{7, 8, 9}); len(got) != 1 || got[0] != 8 {
		t.Errorf("a phase shorter than a window: %v, want [8]", got)
	}
	if got := windowMedians(0, lat); got != nil {
		t.Errorf("back-to-back phase: %v, want no windows", got)
	}
}

func TestReduceChargesFailuresAsMisses(t *testing.T) {
	samples := []sample{
		{Due: 0, Sent: 0, Done: time.Millisecond},
		{Due: time.Millisecond, Sent: time.Millisecond, Done: 2 * time.Millisecond, Err: os.ErrDeadlineExceeded},
	}
	r := reduce(10, samples)
	if r.Failed != 1 || r.Latency.Max != ms(failedLatency) {
		t.Errorf("failed=%d max=%.1f, want 1 failure charged %v", r.Failed, r.Latency.Max, failedLatency)
	}
	if r.meets(1e9) {
		t.Error("a phase with a failure must miss any limit")
	}
	if empty := reduce(10, nil); empty.meets(1e9) {
		t.Error("an empty phase must miss: it measured nothing")
	}
}

func TestCapacityInterpolatesBetweenSteps(t *testing.T) {
	step := func(rate, tail float64) phaseResult {
		return phaseResult{Rate: rate, Sent: 100, Latency: summary{Tail: tail}}
	}
	const limit = 20
	cases := []struct {
		name  string
		steps []phaseResult
		want  float64
	}{
		{"never misses", []phaseResult{step(100, 5), step(200, 8)}, 200},
		{"halfway", []phaseResult{step(100, 10), step(200, 30)}, 150},
		{"barely misses", []phaseResult{step(100, 10), step(200, 20.001)}, 199.99},
		{"far miss", []phaseResult{step(100, 10), step(200, 1010)}, 101},
		{"first step misses", []phaseResult{step(100, 40)}, 50},
	}
	for _, c := range cases {
		if got := capacityOf(c.steps, limit); math.Abs(got-c.want) > 0.01 {
			t.Errorf("%s: capacity %.3f, want %.3f", c.name, got, c.want)
		}
	}
}

// smallCorpus is a corpus small enough to check by hand.
func smallCorpus(t *testing.T) (*workload.Corpus, []query) {
	t.Helper()
	c := workload.Generate(workload.Params{
		NumDocs: 300, TermsPerDoc: 30, VocabSize: 60, TermZipf: 1, ScoreMax: 1000, ScoreZipf: 0.75, Seed: 7,
	})
	qs := []query{
		{text: "t000000 t000001", terms: []string{"t000000", "t000001"}, k: 10, loadRows: true},
		{text: "t000003 t000009", terms: []string{"t000003", "t000009"}, k: 10, disjunctive: true},
		{text: "t000002 t000005", terms: []string{"t000002", "t000005"}, k: 10, termScores: true},
	}
	return c, qs
}

// respond renders hits as a search response, rows included.
func respond(hits []hit) *server.SearchResponse {
	resp := &server.SearchResponse{}
	for _, h := range hits {
		resp.Hits = append(resp.Hits, server.SearchHit{PK: h.PK, Score: h.Score, Row: map[string]any{"id": float64(h.PK)}})
	}
	return resp
}

func TestOracleAcceptsExactAnswer(t *testing.T) {
	c, qs := smallCorpus(t)
	o, err := newOracle(c, qs)
	if err != nil {
		t.Fatal(err)
	}
	in := &inputs{corpus: c}
	scores := in.initialScores()
	for _, q := range qs {
		want := o.topK(q, scores)
		if len(want) != q.k {
			t.Fatalf("%q: only %d matches; the test needs a full top-k", q.text, len(want))
		}
		// Brute force over every document, independently of the oracle's
		// match sets.
		var all []hit
		err := c.ForEach(func(doc workload.DocID, tokens []string) error {
			n := 0
			for _, term := range q.terms {
				for _, tok := range tokens {
					if tok == term {
						n++
						break
					}
				}
			}
			if n == len(q.terms) || (q.disjunctive && n > 0) {
				all = append(all, hit{PK: int64(doc), Score: o.matchesOf(q).score(int64(doc), scores)})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(all, func(i, j int) bool { return better(all[i], all[j]) })
		for i := range want {
			if want[i] != all[i] {
				t.Fatalf("%q: oracle hit %d = %+v, brute force %+v", q.text, i, want[i], all[i])
			}
		}
		if err := o.check(q, scores, respond(want)); err != nil {
			t.Errorf("%q: exact answer rejected: %v", q.text, err)
		}
	}
}

func TestOracleRejectsWrongAnswers(t *testing.T) {
	c, qs := smallCorpus(t)
	o, err := newOracle(c, qs)
	if err != nil {
		t.Fatal(err)
	}
	in := &inputs{corpus: c}
	scores := in.initialScores()
	q := qs[0]
	want := o.topK(q, scores)
	matched := map[int64]bool{}
	for _, d := range o.matchesOf(q).docs {
		matched[d] = true
	}
	var outsider int64
	for d := int64(1); d <= int64(c.NumDocs()); d++ {
		if !matched[d] {
			outsider = d
			break
		}
	}
	mutations := map[string]func([]hit) *server.SearchResponse{
		"mis-ranked": func(h []hit) *server.SearchResponse {
			h[0], h[1] = h[1], h[0]
			return respond(h)
		},
		"stale score": func(h []hit) *server.SearchResponse {
			h[3].Score += 1
			return respond(h)
		},
		"missing hit": func(h []hit) *server.SearchResponse { return respond(h[:len(h)-1]) },
		"non-matching document": func(h []hit) *server.SearchResponse {
			h[len(h)-1].PK = outsider
			return respond(h)
		},
		"duplicate": func(h []hit) *server.SearchResponse {
			h[1] = h[0]
			return respond(h)
		},
		"row not loaded": func(h []hit) *server.SearchResponse {
			r := respond(h)
			r.Hits[2].Row = nil
			return r
		},
		"partial": func(h []hit) *server.SearchResponse {
			r := respond(h)
			r.Partial = true
			return r
		},
	}
	for name, mutate := range mutations {
		h := append([]hit(nil), want...)
		if err := o.check(q, scores, mutate(h)); err == nil {
			t.Errorf("%s response accepted", name)
		}
	}
	// A score update the response has not seen makes it stale.
	later := append([]float64(nil), scores...)
	later[want[len(want)-1].PK] = 1e9
	if err := o.check(q, later, respond(want)); err == nil {
		t.Error("response ignoring the latest score accepted")
	}
}

func TestInputsAreDeterministic(t *testing.T) {
	a, b := genInputs(3, false), genInputs(3, false)
	if a.hash != b.hash || a.userBytes != b.userBytes {
		t.Fatalf("seed 3 generated %s/%d then %s/%d", a.hash, a.userBytes, b.hash, b.userBytes)
	}
	if c := genInputs(4, false); c.hash == a.hash {
		t.Fatal("seeds 3 and 4 generated the same inputs")
	}
	if len(a.queries) != queryPool || len(a.batches) == 0 {
		t.Fatalf("%d queries, %d batches", len(a.queries), len(a.batches))
	}
	disj := 0
	for _, q := range a.queries {
		if q.disjunctive {
			disj++
		}
	}
	if disj != queryPool/10 {
		t.Errorf("%d disjunctive queries, want %d", disj, queryPool/10)
	}
}

func TestJudgeFollowsTheComparisonRule(t *testing.T) {
	rule := metricRule{name: "search_p50_ms", unit: "ms", better: "lower", bound: 0.1}
	parent := []float64{10, 10.1, 9.9, 10.05, 9.95, 10, 10.1, 9.9, 10.05, 9.95}
	faster := make([]float64, len(parent))
	slower := make([]float64, len(parent))
	noisy := []float64{5, 15, 8, 12, 10, 20, 7, 13, 9, 11}
	for i, v := range parent {
		faster[i], slower[i] = v*0.8, v*1.3
	}
	if v := judge(rule, parent, faster); v.outcome != "gain" || v.wins != 10 {
		t.Errorf("faster: %+v", v)
	}
	if v := judge(rule, parent, slower); v.outcome != "REGRESSION" {
		t.Errorf("slower: %+v", v)
	}
	if v := judge(rule, parent, parent); v.outcome != "within bound" {
		t.Errorf("same: %+v", v)
	}
	if v := judge(rule, parent, noisy); !strings.HasPrefix(v.outcome, "unresolved") {
		t.Errorf("noisy: %+v", v)
	}
	higher := metricRule{name: "update_capacity_ops", better: "higher", bound: 0.1}
	if v := judge(higher, parent, slower); v.outcome != "gain" {
		t.Errorf("higher is better: %+v", v)
	}
}

// TestBenchmarkFileMatchesProgram keeps BENCHMARK.json and the metrics the
// program emits in step.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		benchmarkFile
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	var e2e []string
	for _, m := range bench.EndToEnd {
		e2e = append(e2e, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g out of (0, 0.25]", m.Name, m.Bound)
		}
	}
	if strings.Join(e2e, ",") != strings.Join(e2eNames, ",") {
		t.Errorf("end_to_end %v, program emits %v", e2e, e2eNames)
	}
	if len(bench.PerLayer) != len(layerMetas) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(bench.PerLayer), len(layerMetas))
	}
	for i, m := range bench.PerLayer {
		lm := layerMetas[i]
		if m.Name != lm.name || m.Unit != lm.unit || m.Better != lm.better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, lm)
		}
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bench.Workloads), len(workloads))
	}
	for i, w := range bench.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloads[i].name)
		}
	}
}
