package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"math/rand"
	"strings"

	"svrdb/internal/core"
	"svrdb/internal/relation"
	"svrdb/internal/server"
	"svrdb/internal/text"
	"svrdb/internal/workload"
)

// Every workload shares one generated corpus, one update trace and one query
// mix, all derived from the run's seed; they differ only in how the engine is
// configured and driven.
const (
	batchSize   = 64 // score updates per /v1/batch request
	searchK     = 10
	queryPool   = 1200 // large enough that every seed's mix has the same cost profile
	tableName   = "Docs"
	indexName   = "docs"
	specName    = "docscore"
	rowsPerPost = 500 // rows per POST /v1/tables/{name}/rows while loading
)

// query is one search of the mix, in the form the oracle and the direct
// layer calls need as well as the wire form.
type query struct {
	text        string   // the query string sent over HTTP
	terms       []string // analyzed distinct terms, the engine's order
	class       workload.QueryClass
	k           int
	disjunctive bool
	termScores  bool
	loadRows    bool
}

// request renders the query as the search endpoint's body.
func (q query) request() server.SearchRequest {
	return server.SearchRequest{
		Query:          q.text,
		K:              q.k,
		Disjunctive:    q.disjunctive,
		WithTermScores: q.termScores,
		LoadRows:       q.loadRows,
	}
}

// coreRequest renders the query as the engine's request, as the server's
// handler builds it.
func (q query) coreRequest() core.SearchRequest {
	return core.SearchRequest{
		Query:          q.text,
		K:              q.k,
		Disjunctive:    q.disjunctive,
		WithTermScores: q.termScores,
		LoadRows:       q.loadRows,
	}
}

// inputs is everything a run generates from its seed.
type inputs struct {
	seed      int64
	corpus    *workload.Corpus
	updates   []workload.ScoreUpdate
	batches   [][]workload.ScoreUpdate
	queries   []query
	userBytes int64 // encoded size of every row loaded
	hash      string
}

// corpusParams and updateParams are the shared input sizes: the repository's
// default corpus and update trace, reseeded.
func corpusParams(seed int64) workload.Params {
	p := workload.DefaultParams()
	p.Seed = seed
	return p
}

func updateParams(seed int64) workload.UpdateParams {
	p := workload.DefaultUpdateParams()
	p.Seed = seed + 1
	return p
}

// genInputs generates the corpus, trace and query mix for a seed. The query
// mix is 60% unselective, 30% medium and 10% selective two-term queries, a
// tenth of them disjunctive, k=10 with rows loaded.
func genInputs(seed int64, termScores bool) *inputs {
	in := &inputs{seed: seed, corpus: workload.Generate(corpusParams(seed))}
	in.updates = workload.GenerateUpdates(in.corpus, updateParams(seed))
	for lo := 0; lo+batchSize <= len(in.updates); lo += batchSize {
		in.batches = append(in.batches, in.updates[lo:lo+batchSize])
	}
	mix := []struct {
		class workload.QueryClass
		n     int
	}{
		{workload.Unselective, queryPool * 6 / 10},
		{workload.MediumSelective, queryPool * 3 / 10},
		{workload.Selective, queryPool / 10},
	}
	analyzer := text.NewAnalyzer()
	for i, m := range mix {
		qs := workload.GenerateQueries(in.corpus, workload.QueryParams{
			Class: m.class, TermsPerQuery: 2, NumQueries: m.n, Seed: seed + 2 + int64(i),
		})
		for _, terms := range qs {
			txt := strings.Join(terms, " ")
			in.queries = append(in.queries, query{
				text:       txt,
				terms:      text.DistinctTerms(analyzer.Tokenize(txt)),
				class:      m.class,
				k:          searchK,
				termScores: termScores,
				loadRows:   true,
			})
		}
	}
	rng := rand.New(rand.NewSource(seed + 5))
	rng.Shuffle(len(in.queries), func(i, j int) { in.queries[i], in.queries[j] = in.queries[j], in.queries[i] })
	for i := range in.queries {
		in.queries[i].disjunctive = i%10 == 9
	}
	// The callback returns no error, so neither can ForEach.
	_ = in.corpus.ForEach(func(doc workload.DocID, tokens []string) error {
		in.userBytes += int64(core.EncodedRowSize(docRow(in.corpus, doc, tokens)))
		return nil
	})
	in.hash = in.digest()
	return in
}

// docBody is the text stored for a document.
func docBody(tokens []string) string { return strings.Join(tokens, " ") }

// docRow is the relational row of a document: (id, body, score).
func docRow(c *workload.Corpus, doc workload.DocID, tokens []string) relation.Row {
	return relation.Row{relation.Int(int64(doc)), relation.Str(docBody(tokens)), relation.Float(c.Score(doc))}
}

// docsSchema is the indexed table.
func docsSchema() relation.Schema {
	return relation.Schema{
		Name: tableName,
		Columns: []relation.Column{
			{Name: "id", Kind: relation.KindInt64},
			{Name: "body", Kind: relation.KindString},
			{Name: "score", Kind: relation.KindFloat64},
		},
	}
}

// rowChunks renders the corpus as the rows endpoint's bodies.
func (in *inputs) rowChunks() ([][]byte, error) {
	var chunks [][]byte
	var rows []map[string]any
	flush := func() error {
		if len(rows) == 0 {
			return nil
		}
		b, err := json.Marshal(map[string]any{"rows": rows})
		chunks = append(chunks, b)
		rows = rows[:0]
		return err
	}
	err := in.corpus.ForEach(func(doc workload.DocID, tokens []string) error {
		rows = append(rows, map[string]any{"id": int64(doc), "body": docBody(tokens), "score": in.corpus.Score(doc)})
		if len(rows) == rowsPerPost {
			return flush()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return chunks, flush()
}

// batchBody renders batch i of the trace as a /v1/batch body.
func (in *inputs) batchBody(i int) ([]byte, error) {
	ops := make([]map[string]any, len(in.batches[i]))
	for j, u := range in.batches[i] {
		ops[j] = map[string]any{"op": "update", "table": tableName, "pk": int64(u.Doc), "set": map[string]any{"score": u.NewScore}}
	}
	return json.Marshal(map[string]any{"ops": ops})
}

// initialScores returns the build-time score of every document, indexed by
// document ID.
func (in *inputs) initialScores() []float64 {
	scores := make([]float64, in.corpus.NumDocs()+1)
	for d := 1; d <= in.corpus.NumDocs(); d++ {
		scores[d] = in.corpus.Score(workload.DocID(d))
	}
	return scores
}

// digest hashes everything the program under test receives, so two runs
// can show they were given identical inputs.
func (in *inputs) digest() string {
	h := sha256.New()
	var buf [8]byte
	putF := func(f float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
	// The callback returns no error, so neither can ForEach.
	_ = in.corpus.ForEach(func(doc workload.DocID, tokens []string) error {
		h.Write([]byte(docBody(tokens)))
		putF(in.corpus.Score(doc))
		return nil
	})
	for _, u := range in.updates {
		binary.LittleEndian.PutUint64(buf[:], uint64(u.Doc))
		h.Write(buf[:])
		putF(u.NewScore)
	}
	for _, q := range in.queries {
		h.Write([]byte(q.text))
		if q.disjunctive {
			h.Write([]byte{1})
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
