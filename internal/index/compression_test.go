package index

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"svrdb/internal/text"
)

// Tests for the posting-block encoding at the index level: every method
// must answer exactly through updates, merges and checkpoint restores, and
// the encoding must actually earn its keep (ratio gate).

// compressionCorpus generates a corpus dense enough that every term has a
// long list spanning hundreds of documents (so posting blocks fill up and
// the bitpacked gap encoding is exercised, not just block headers).
func compressionCorpus(nDocs, vocabSize, docLen int, seed int64) *testCorpus {
	rng := rand.New(rand.NewSource(seed))
	vocab := make([]string, vocabSize)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("term%02d", i)
	}
	c := newTestCorpus()
	for i := 0; i < nDocs; i++ {
		words := make([]string, 0, docLen)
		for j := 0; j < docLen; j++ {
			words = append(words, vocab[rng.Intn(len(vocab))])
		}
		c.add(DocID(i+1), float64(rng.Intn(100000))+rng.Float64(), strings.Join(words, " "))
	}
	return c
}

// oracleQuery runs q against m and checks it against the oracle: SVR-only
// scores exactly, combined SVR + term scores (§4.3.3) to within float
// summation noise.  Term-score queries carry the oracle's collection
// statistics as Global, so the method ranks with the oracle's idf.
func oracleQuery(t *testing.T, label string, m Method, o *oracle, q Query) {
	t.Helper()
	var idfs map[string]float64
	if q.WithTermScores {
		q.Global, idfs = o.globalStats(q.Terms)
	}
	res, err := m.TopK(q)
	if err != nil {
		t.Fatalf("%s: TopK: %v", label, err)
	}
	if !q.WithTermScores {
		checkTopKScores(t, label, res.Results, o.topK(q.Terms, q.K, q.Disjunctive))
		return
	}
	want := o.topKCombined(q.Terms, idfs, q.K, q.Disjunctive)
	if len(res.Results) != len(want) {
		t.Fatalf("%s: got %d results (%v), want %d (%v)", label, len(res.Results), res.Results, len(want), want)
	}
	for i := range want {
		if diff := res.Results[i].Score - want[i]; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("%s: result %d score %.8f, want %.8f", label, i, res.Results[i].Score, want[i])
		}
	}
}

// globalStats returns the oracle's live document count and per-term
// document frequencies as query statistics, plus the idf they give each
// term.
func (o *oracle) globalStats(terms []string) (*GlobalStats, map[string]float64) {
	g := &GlobalStats{DF: make([]int64, len(terms))}
	for doc := range o.tokens {
		if o.deleted[doc] {
			continue
		}
		g.NumDocs++
		for i, term := range terms {
			if o.contains(doc, term) {
				g.DF[i]++
			}
		}
	}
	idfs := make(map[string]float64, len(terms))
	for i, term := range terms {
		idfs[term] = text.IDF(text.CollectionStats{NumDocs: g.NumDocs}, g.DF[i])
	}
	return g, idfs
}

// TestLongListsMatchOracle drives every method, whose long lists are
// posting-block blobs, through a build, one batch of inserts, deletes,
// content and score updates, MergeShortLists and a checkpoint Restore,
// checking random queries against the brute-force oracle after each step.
func TestLongListsMatchOracle(t *testing.T) {
	const nDocs = 400
	for name, ctor := range allConstructors() {
		t.Run(name, func(t *testing.T) {
			corpus := compressionCorpus(nDocs, 12, 9, 71)
			cfg := newTestConfig(t)
			m, err := ctor(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Build(corpus, corpus.scoreFunc()); err != nil {
				t.Fatalf("Build: %v", err)
			}
			o := newOracle(corpus)

			withTS := name == "ID-TermScore" || name == "Chunk-TermScore"
			rng := rand.New(rand.NewSource(29))
			runQueries := func(m Method, stage string) {
				for q := 0; q < 12; q++ {
					n := rng.Intn(3) + 1
					terms := make([]string, 0, n)
					for j := 0; j < n; j++ {
						terms = append(terms, fmt.Sprintf("term%02d", rng.Intn(12)))
					}
					query := Query{
						Terms:          terms,
						K:              rng.Intn(20) + 1,
						Disjunctive:    rng.Intn(2) == 0,
						WithTermScores: withTS && rng.Intn(2) == 0,
					}
					oracleQuery(t, fmt.Sprintf("%s %s %+v", name, stage, query), m, o, query)
				}
			}
			runQueries(m, "after build")

			// One update batch: score changes, an insert, a delete and a
			// content rewrite, so the combined short+long streams and the
			// stale-copy resolution both run over the block-encoded lists.
			inserted := strings.Fields("term00 term03 term07 term03")
			rewritten := strings.Fields("term01 term05 term05 term09")
			batch := []Update{
				{Op: InsertOp, Doc: DocID(nDocs + 1), Tokens: inserted, Score: 91000},
				{Op: DeleteOp, Doc: 17},
				{Op: ContentOp, Doc: 23, OldTokens: corpus.docs[23], NewTokens: rewritten},
			}
			for u := 0; u < 120; u++ {
				doc := DocID(rng.Intn(nDocs) + 1)
				if doc == 17 {
					continue // deleted docs cannot take further updates
				}
				batch = append(batch, Update{Op: ScoreOp, Doc: doc, Score: float64(rng.Intn(200000))})
			}
			if err := m.ApplyUpdates(batch); err != nil {
				t.Fatalf("ApplyUpdates: %v", err)
			}
			o.setTokens(DocID(nDocs+1), inserted)
			o.scores[DocID(nDocs+1)] = 91000
			o.deleted[17] = true
			o.setTokens(23, rewritten)
			for _, u := range batch {
				if u.Op == ScoreOp {
					o.scores[u.Doc] = u.Score
				}
			}
			corpus.docs[DocID(nDocs+1)] = inserted
			corpus.docs[23] = rewritten
			runQueries(m, "after updates")

			// The offline merge rewrites the long lists.
			if err := m.MergeShortLists(); err != nil {
				t.Fatalf("MergeShortLists: %v", err)
			}
			runQueries(m, "after merge")

			// Checkpoint round-trip: the restored method reads the same
			// blobs (and, for Score-Threshold, the persisted score
			// directory).
			restored, err := Restore(cfg, m.State())
			if err != nil {
				t.Fatalf("Restore: %v", err)
			}
			restored.SetSource(corpus)
			runQueries(restored, "after restore")
		})
	}
}

func TestCompressionRatioGate(t *testing.T) {
	// Long lists of several hundred postings each; the blob-backed methods
	// must compress their fixed-width footprint at least 2x.  The Score
	// method keeps postings in B+-tree leaves and is exempt.
	corpus := compressionCorpus(2000, 25, 10, 5)
	for name, ctor := range allConstructors() {
		if name == "Score" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			cfg := newTestConfig(t)
			cfg.MinChunkSize = 100
			m, err := ctor(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Build(corpus, corpus.scoreFunc()); err != nil {
				t.Fatal(err)
			}
			st := m.Stats()
			if st.LongListRawBytes == 0 || st.LongListBytes == 0 {
				t.Fatalf("stats missing byte counts: raw %d stored %d", st.LongListRawBytes, st.LongListBytes)
			}
			ratio := float64(st.LongListRawBytes) / float64(st.LongListBytes)
			t.Logf("%s: raw %d B, stored %d B, ratio %.2fx", name, st.LongListRawBytes, st.LongListBytes, ratio)
			if ratio < 2 {
				t.Errorf("%s compression ratio %.2fx < 2x (raw %d B, stored %d B)", name, ratio, st.LongListRawBytes, st.LongListBytes)
			}
		})
	}
}
