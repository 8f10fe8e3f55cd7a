package main

import (
	"fmt"
	"math"
	"sort"

	"svrdb/internal/server"
	"svrdb/internal/text"
	"svrdb/internal/workload"
)

// oracle computes exact top-k answers from the benchmark's own copy of the
// inputs: the generated corpus and the update trace. Document contents never
// change in these workloads, so a query's matching set is fixed and only the
// scores move; the answer under the latest scores (the paper's Theorems 1
// and 2) is the k best matching documents by score after the applied prefix
// of the trace. Combined ranking adds each present term's TF-IDF weight over
// the whole collection, the statistics a router pins into every shard.
type oracle struct {
	numDocs int64
	// postings maps each query term to the documents containing it, with the
	// term's normalized frequency in each.
	postings map[string]map[int64]float32
	matches  map[string]*matchSet
}

// matchSet is the fixed part of a query's answer: the matching documents
// and, for combined ranking, each one's per-term TF-IDF additions in query
// term order.
type matchSet struct {
	docs  []int64
	extra map[int64][]float64
}

// newOracle indexes the corpus for the terms of queries.
func newOracle(corpus *workload.Corpus, queries []query) (*oracle, error) {
	o := &oracle{
		numDocs:  int64(corpus.NumDocs()),
		postings: map[string]map[int64]float32{},
		matches:  map[string]*matchSet{},
	}
	for _, q := range queries {
		for _, t := range q.terms {
			o.postings[t] = map[int64]float32{}
		}
	}
	analyzer := text.NewAnalyzer()
	err := corpus.ForEach(func(doc workload.DocID, tokens []string) error {
		// The engine analyzes the stored body, not the generator's token
		// list; analyze the same string so lengths and frequencies agree.
		analyzed := analyzer.Tokenize(docBody(tokens))
		for term, n := range text.TermFrequencies(analyzed) {
			if p, ok := o.postings[term]; ok {
				p[int64(doc)] = text.NormalizedTF(n, len(analyzed))
			}
		}
		return nil
	})
	return o, err
}

// matchesOf returns (and caches) the documents matching q.
func (o *oracle) matchesOf(q query) *matchSet {
	key := fmt.Sprint(q.terms, q.disjunctive, q.termScores)
	if m, ok := o.matches[key]; ok {
		return m
	}
	m := &matchSet{}
	count := map[int64]int{}
	for _, t := range q.terms {
		for d := range o.postings[t] {
			count[d]++
		}
	}
	for d, n := range count {
		if q.disjunctive || n == len(q.terms) {
			m.docs = append(m.docs, d)
		}
	}
	sort.Slice(m.docs, func(i, j int) bool { return m.docs[i] < m.docs[j] })
	if q.termScores {
		m.extra = make(map[int64][]float64, len(m.docs))
		for _, d := range m.docs {
			add := make([]float64, 0, len(q.terms))
			for _, t := range q.terms {
				if w, ok := o.postings[t][d]; ok {
					idf := text.IDF(text.CollectionStats{NumDocs: o.numDocs}, int64(len(o.postings[t])))
					add = append(add, text.TFIDF(w, idf))
				}
			}
			m.extra[d] = add
		}
	}
	o.matches[key] = m
	return m
}

// score is document d's ranking score for the match set, summed in the
// engine's order: the SVR score, then each present term's weight.
func (m *matchSet) score(d int64, scores []float64) float64 {
	s := scores[d]
	for _, a := range m.extra[d] {
		s += a
	}
	return s
}

// hit is one expected or returned ranked document.
type hit struct {
	PK    int64
	Score float64
}

// better orders hits the way the engine's top-k heap breaks ties: score
// descending, then primary key ascending.
func better(a, b hit) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.PK < b.PK
}

// topK returns the exact answer to q when document d has score scores[d].
func (o *oracle) topK(q query, scores []float64) []hit {
	m := o.matchesOf(q)
	top := make([]hit, 0, q.k+1)
	for _, d := range m.docs {
		h := hit{PK: d, Score: m.score(d, scores)}
		if len(top) == q.k && !better(h, top[len(top)-1]) {
			continue
		}
		i := sort.Search(len(top), func(i int) bool { return better(h, top[i]) })
		top = append(top, hit{})
		copy(top[i+1:], top[i:])
		top[i] = h
		if len(top) > q.k {
			top = top[:q.k]
		}
	}
	return top
}

// scoreTolerance absorbs the rounding of summing TF-IDF terms in another
// order; SVR-only scores compare exactly in practice.
const scoreTolerance = 1e-9

func sameScore(a, b float64) bool {
	return math.Abs(a-b) <= scoreTolerance*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// check compares a search response with the exact answer. Hits with equal
// scores may come in either order; anything else — a missing or extra hit,
// a wrong score, a document ranked out of order, a row not loaded — is a
// mismatch.
func (o *oracle) check(q query, scores []float64, resp *server.SearchResponse) error {
	if resp.Partial {
		return fmt.Errorf("partial result")
	}
	want := o.topK(q, scores)
	if len(resp.Hits) != len(want) {
		return fmt.Errorf("%d hits, want %d", len(resp.Hits), len(want))
	}
	m := o.matchesOf(q)
	seen := make(map[int64]bool, len(resp.Hits))
	for i, h := range resp.Hits {
		if seen[h.PK] {
			return fmt.Errorf("hit %d: pk %d returned twice", i, h.PK)
		}
		seen[h.PK] = true
		if !sameScore(h.Score, want[i].Score) {
			return fmt.Errorf("hit %d: score %v, want %v (pk %d)", i, h.Score, want[i].Score, want[i].PK)
		}
		// The position's score matches; the document must also match the
		// query and carry that score (a tie may swap equal-scored ones).
		j := sort.Search(len(m.docs), func(j int) bool { return m.docs[j] >= h.PK })
		if j == len(m.docs) || m.docs[j] != h.PK {
			return fmt.Errorf("hit %d: pk %d does not match the query", i, h.PK)
		}
		if s := m.score(h.PK, scores); !sameScore(s, h.Score) {
			return fmt.Errorf("hit %d: pk %d scored %v, want %v", i, h.PK, h.Score, s)
		}
		if q.loadRows {
			if id, ok := h.Row["id"].(float64); !ok || int64(id) != h.PK {
				return fmt.Errorf("hit %d: row for pk %d not loaded", i, h.PK)
			}
		}
	}
	return nil
}
