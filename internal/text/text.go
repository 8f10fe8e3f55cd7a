package text

import (
	"math"
	"sort"
	"strings"
	"sync"
	"unicode"
)

// Analyzer turns raw text into index terms.  The zero value is not usable;
// call NewAnalyzer.
type Analyzer struct {
	lowercase bool
	minLen    int
	stopwords map[string]struct{}
}

// AnalyzerOption configures an Analyzer.
type AnalyzerOption func(*Analyzer)

// WithStopwords installs a stopword list; stopwords are dropped from the
// token stream.
func WithStopwords(words []string) AnalyzerOption {
	return func(a *Analyzer) {
		for _, w := range words {
			a.stopwords[strings.ToLower(w)] = struct{}{}
		}
	}
}

// WithMinTokenLength drops tokens shorter than n runes.
func WithMinTokenLength(n int) AnalyzerOption {
	return func(a *Analyzer) { a.minLen = n }
}

// WithoutLowercasing disables case folding (enabled by default).
func WithoutLowercasing() AnalyzerOption {
	return func(a *Analyzer) { a.lowercase = false }
}

// NewAnalyzer returns an analyzer that splits on non-alphanumeric runes and
// lowercases tokens.
func NewAnalyzer(opts ...AnalyzerOption) *Analyzer {
	a := &Analyzer{lowercase: true, minLen: 1, stopwords: map[string]struct{}{}}
	for _, o := range opts {
		o(a)
	}
	return a
}

// Tokenize splits text into terms.
func (a *Analyzer) Tokenize(text string) []string {
	var tokens []string
	fields := strings.FieldsFunc(text, func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
	for _, f := range fields {
		if a.lowercase {
			f = strings.ToLower(f)
		}
		if len([]rune(f)) < a.minLen {
			continue
		}
		if _, stopped := a.stopwords[f]; stopped {
			continue
		}
		tokens = append(tokens, f)
	}
	return tokens
}

// TermFrequencies counts occurrences of each distinct term in tokens.
func TermFrequencies(tokens []string) map[string]int {
	tf := make(map[string]int, len(tokens))
	for _, t := range tokens {
		tf[t]++
	}
	return tf
}

// DistinctTerms returns the sorted distinct terms of a token stream.
func DistinctTerms(tokens []string) []string {
	set := TermFrequencies(tokens)
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// TermID is a compact identifier assigned to a term by a Dictionary.
type TermID uint32

// Dictionary maps terms to dense TermIDs and tracks document frequencies.
// It is safe for concurrent use.
type Dictionary struct {
	mu      sync.RWMutex
	ids     map[string]TermID
	terms   []string
	docFreq []int64
	// gen counts mutations (new terms and document-frequency changes),
	// letting snapshot publishers skip the O(vocabulary) frequency copy and
	// checkpoints skip re-persisting the dictionary when nothing changed
	// (e.g. a score-only batch).
	gen uint64
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{ids: map[string]TermID{}}
}

// Intern returns the TermID for term, assigning a new one if needed.
func (d *Dictionary) Intern(term string) TermID {
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.ids[term]; ok {
		return id
	}
	id := TermID(len(d.terms))
	d.ids[term] = id
	d.terms = append(d.terms, term)
	d.docFreq = append(d.docFreq, 0)
	d.gen++
	return id
}

// Lookup returns the TermID for term if it has been interned.
func (d *Dictionary) Lookup(term string) (TermID, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, ok := d.ids[term]
	return id, ok
}

// Term returns the string for a TermID.
func (d *Dictionary) Term(id TermID) string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(id) >= len(d.terms) {
		return ""
	}
	return d.terms[id]
}

// Len reports the number of interned terms.
func (d *Dictionary) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.terms)
}

// AddDocumentTerms increments the document frequency of each distinct term.
func (d *Dictionary) AddDocumentTerms(distinct []string) {
	for _, t := range distinct {
		id := d.Intern(t)
		d.mu.Lock()
		d.docFreq[id]++
		d.gen++
		d.mu.Unlock()
	}
}

// RemoveDocumentTerms decrements the document frequency of each distinct
// term (used when a document is deleted or its content changes).
func (d *Dictionary) RemoveDocumentTerms(distinct []string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, t := range distinct {
		if id, ok := d.ids[t]; ok && d.docFreq[id] > 0 {
			d.docFreq[id]--
			d.gen++
		}
	}
}

// Gen returns the mutation counter; equal values mean neither the terms nor
// the frequency vector changed between observations.
func (d *Dictionary) Gen() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.gen
}

// DocFreqSnapshot returns an independent copy of the per-term document
// frequencies, indexed by TermID, for a frozen IDF view.
func (d *Dictionary) DocFreqSnapshot() []int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return append([]int64(nil), d.docFreq...)
}

// DocFreq reports how many documents contain the term.
func (d *Dictionary) DocFreq(term string) int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if id, ok := d.ids[term]; ok {
		return d.docFreq[id]
	}
	return 0
}

// DictionaryState is the serializable snapshot of a Dictionary, captured at
// a checkpoint and restored on open.  Terms are listed in TermID order; the
// term→ID map is rebuilt from it.
type DictionaryState struct {
	Terms   []string
	DocFreq []int64
}

// State snapshots the dictionary.
func (d *Dictionary) State() DictionaryState {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return DictionaryState{
		Terms:   append([]string(nil), d.terms...),
		DocFreq: append([]int64(nil), d.docFreq...),
	}
}

// RestoreDictionary rebuilds a dictionary from a snapshot.
func RestoreDictionary(st DictionaryState) *Dictionary {
	d := &Dictionary{
		ids:     make(map[string]TermID, len(st.Terms)),
		terms:   append([]string(nil), st.Terms...),
		docFreq: append([]int64(nil), st.DocFreq...),
	}
	for i, t := range d.terms {
		d.ids[t] = TermID(i)
	}
	for len(d.docFreq) < len(d.terms) {
		d.docFreq = append(d.docFreq, 0)
	}
	return d
}

// CollectionStats carries the collection-level counts needed for IDF.
type CollectionStats struct {
	NumDocs int64
}

// IDF returns the inverse document frequency of a term:
// log(1 + N/df).  Terms absent from the collection get IDF 0 so that they
// contribute nothing to combined scores.
func IDF(stats CollectionStats, docFreq int64) float64 {
	if docFreq <= 0 || stats.NumDocs <= 0 {
		return 0
	}
	return math.Log(1 + float64(stats.NumDocs)/float64(docFreq))
}

// NormalizedTF returns the length-normalized term frequency used as the
// per-posting term weight: tf / docLen.  A zero document length yields 0.
func NormalizedTF(tf, docLen int) float32 {
	if docLen <= 0 || tf <= 0 {
		return 0
	}
	return float32(float64(tf) / float64(docLen))
}

// TFIDF combines a stored normalized TF weight with a collection IDF.
func TFIDF(normTF float32, idf float64) float64 {
	return float64(normTF) * idf
}
