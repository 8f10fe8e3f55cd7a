package index

import (
	"fmt"
	"maps"
	"reflect"
	"unsafe"

	"svrdb/internal/storage/blob"
	"svrdb/internal/storage/btree"
	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/epoch"
	"svrdb/internal/storage/pagefile"
	"svrdb/internal/text"
)

// TreeRef anchors one B+-tree for a checkpoint: its root page and key
// count.  Entries additionally carries a keyedList's posting count (which
// the list tracks separately from the tree's key count).
type TreeRef struct {
	Root    pagefile.PageID
	Size    int
	Entries int
}

func treeRefOf(t *btree.Tree) TreeRef {
	return TreeRef{Root: t.RootPage(), Size: t.Len()}
}

// MethodState is the serializable navigational state of one index method:
// everything Restore needs to reattach to the trees and blobs a checkpoint
// left in the page file.  It has three parts.  MethodAnchors is small and
// changes with nearly every write; the two bulk sections, LongSection and
// TermSection, are large and change rarely, so a checkpoint persists each
// of them separately and rewrites one only when its SectionVersion moved.
type MethodState struct {
	MethodAnchors
	LongSection
	TermSection
}

// MethodAnchors is the small part of a method's state: which method it is,
// its counters, and the roots of its page-resident trees.  Kind selects
// which of the optional tree anchors are meaningful; unused ones stay zero.
type MethodAnchors struct {
	// Kind is the Method.Name() of the snapshotted index.
	Kind string

	NumDocs   int64
	LongBytes uint64
	// LongRawBytes is the fixed-width footprint of the long-list postings
	// (the raw side of the compression ratio reported by Stats).
	LongRawBytes uint64
	// Score anchors the Score table's tree.
	Score TreeRef
	// Lists anchors the ID family's auxiliary list, the Score method's
	// clustered lists, and the threshold/chunk families' short lists — each
	// method has exactly one mutable keyed list.
	Lists TreeRef
	// ListTable anchors the ListScore/ListChunk table (threshold and chunk
	// families only).
	ListTable TreeRef
	// FancyBytes is the fancy lists' blob footprint (Chunk-TermScore only).
	FancyBytes uint64
}

// LongSection is the long-list directory: the blob of every term's long
// list and the build-time vectors the lists are encoded against.  Build
// and MergeShortLists replace each part wholesale and nothing else touches
// it, so it changes only then.
type LongSection struct {
	// LongRefs maps each term to its immutable long inverted list blob.
	LongRefs map[string]blob.Ref
	// ScoreDir is the Score-Threshold method's score directory: the distinct
	// build-time scores in descending order that its compressed long lists
	// encode ranks against.  Nil for other methods.
	ScoreDir []float64
	// ChunkLower is the chunker's boundary vector (chunk families only).
	ChunkLower []float64
	// FancyRefs and FancyMinW locate each term's fancy list and bound its
	// weakest term weight (Chunk-TermScore only).
	FancyRefs map[string]blob.Ref
	FancyMinW map[string]float32
}

// TermSection is the vocabulary: the dictionary with its document
// frequencies and the distinct-term cache of incrementally inserted
// documents.  Inserts, deletes, content updates, builds and merges change
// it; score updates do not.
type TermSection struct {
	Dict text.DictionaryState
	// KnownTokens carries the distinct-term cache for incrementally inserted
	// documents (empty for the Score method, which never consults it).
	KnownTokens map[DocID][]string
}

// Section names one bulk section of a MethodState.
type Section uint8

const (
	// SectionLong is the LongSection.
	SectionLong Section = iota
	// SectionTerms is the TermSection.
	SectionTerms
	// NumSections counts the sections; they are numbered from zero.
	NumSections
)

func (s Section) String() string {
	switch s {
	case SectionLong:
		return "long"
	case SectionTerms:
		return "terms"
	default:
		return fmt.Sprintf("Section(%d)", uint8(s))
	}
}

// SectionVersion identifies the content of one bulk section of a live
// method: two versions read from the same method compare equal only if the
// section did not change in between.  The long section is identified by
// the identity of its maps and slices, which are never mutated once
// installed (build and merge swap in fresh ones); the term section by the
// dictionary's identity and mutation counter plus the token cache's
// mutation counter.  A version holds references to what it identifies, so
// a replaced map stays alive while a version names it and its address is
// never reused by a successor.
type SectionVersion struct {
	refs, fancyRefs, fancyMinW unsafe.Pointer
	scoreDir, chunkLower       *float64
	dict                       *text.Dictionary
	dictGen, tokensGen         uint64
}

// mapIdentity returns the address of a map's header (nil for a nil map).
func mapIdentity[K comparable, V any](m map[K]V) unsafe.Pointer {
	return reflect.ValueOf(m).UnsafePointer()
}

// tokenCache caches the distinct terms of documents inserted after the bulk
// build, so deletions can purge their short-list postings even if the
// document source no longer has the row.  Writers go through put and drop,
// which count mutations in gen for checkpoint change detection.
type tokenCache struct {
	docs map[DocID][]string
	gen  uint64
}

func (c *tokenCache) put(doc DocID, terms []string) {
	c.docs[doc] = terms
	c.gen++
}

func (c *tokenCache) drop(doc DocID) {
	if _, ok := c.docs[doc]; ok {
		delete(c.docs, doc)
		c.gen++
	}
}

// --- per-structure snapshot/open helpers -------------------------------------

func (l *keyedList) state() TreeRef {
	r := treeRefOf(l.tree)
	r.Entries = l.entries
	return r
}

func openKeyedList(pool *buffer.Pool, r TreeRef) *keyedList {
	return &keyedList{tree: btree.Open(pool, r.Root, r.Size), entries: r.Entries}
}

func openScoreTable(pool *buffer.Pool, r TreeRef) *scoreTable {
	return &scoreTable{tree: btree.Open(pool, r.Root, r.Size)}
}

func openListTable(pool *buffer.Pool, r TreeRef) *listTable {
	return &listTable{tree: btree.Open(pool, r.Root, r.Size)}
}

func copyTokenCache(src map[DocID][]string) map[DocID][]string {
	out := make(map[DocID][]string, len(src))
	for doc, terms := range src {
		out[doc] = append([]string(nil), terms...)
	}
	return out
}

// --- State, Anchors and sections ----------------------------------------------

// liveState assembles the method's state by reference: its maps and slices
// are the live ones and Dict is left empty, so it costs no copying.  The
// caller must hold the writer lock while it uses the result (KnownTokens is
// mutated in place) and must not modify it.
func (b *base) liveState() MethodState {
	st := MethodState{
		MethodAnchors: MethodAnchors{
			NumDocs:      b.numDocs.Load(),
			LongBytes:    b.longBytes,
			LongRawBytes: b.longRawBytes,
			Score:        treeRefOf(b.score.tree),
		},
		LongSection: LongSection{LongRefs: b.longRefs},
		TermSection: TermSection{KnownTokens: b.knownTokens.docs},
	}
	b.stateExtra(&st)
	return st
}

// State implements Method.
func (b *base) State() MethodState {
	st := b.liveState()
	st.LongRefs = maps.Clone(st.LongRefs)
	st.ScoreDir = append([]float64(nil), st.ScoreDir...)
	st.ChunkLower = append([]float64(nil), st.ChunkLower...)
	st.FancyRefs = maps.Clone(st.FancyRefs)
	st.FancyMinW = maps.Clone(st.FancyMinW)
	st.Dict = b.dict.State()
	st.KnownTokens = copyTokenCache(st.KnownTokens)
	return st
}

// Anchors implements Method.
func (b *base) Anchors() MethodAnchors { return b.liveState().MethodAnchors }

// SectionVersion implements Method.
func (b *base) SectionVersion(s Section) SectionVersion {
	switch s {
	case SectionLong:
		st := b.liveState()
		return SectionVersion{
			refs:       mapIdentity(st.LongRefs),
			fancyRefs:  mapIdentity(st.FancyRefs),
			fancyMinW:  mapIdentity(st.FancyMinW),
			scoreDir:   unsafe.SliceData(st.ScoreDir),
			chunkLower: unsafe.SliceData(st.ChunkLower),
		}
	case SectionTerms:
		return SectionVersion{dict: b.dict, dictGen: b.dict.Gen(), tokensGen: b.knownTokens.gen}
	default:
		return SectionVersion{}
	}
}

// AppendSection implements Method.
func (b *base) AppendSection(dst []byte, s Section) []byte {
	st := b.liveState()
	if s == SectionTerms {
		st.Dict = b.dict.State()
	}
	return appendSection(dst, s, &st)
}

// openBase rebuilds the shared plumbing from a snapshot, taking ownership
// of its maps and slices.  The document source must be rewired by the
// caller (SetSource) before maintenance runs.
func openBase(cfg Config, st *MethodState) (*base, error) {
	if cfg.Pool == nil {
		return nil, fmt.Errorf("index: Config.Pool is required")
	}
	cfg = cfg.Defaults()
	b := &base{
		cfg:          cfg,
		store:        blob.NewStore(cfg.Pool),
		dict:         text.RestoreDictionary(st.Dict),
		score:        openScoreTable(cfg.Pool, st.Score),
		longRefs:     st.LongRefs,
		longBytes:    st.LongBytes,
		longRawBytes: st.LongRawBytes,
		knownTokens:  tokenCache{docs: st.KnownTokens},
	}
	if b.longRefs == nil {
		b.longRefs = map[string]blob.Ref{}
	}
	if b.knownTokens.docs == nil {
		b.knownTokens.docs = map[DocID][]string{}
	}
	b.numDocs.Store(st.NumDocs)
	b.epochs = epoch.New(cfg.Pool.FreePage)
	b.score.enableCOW(b.retirePage)
	return b, nil
}

// SetSource rewires the document source after a restore.  The source feeds
// maintenance paths that need a document's token stream (Score-method
// posting moves, deletions); it must present the same document IDs the
// index was built over.
func (b *base) SetSource(src DocSource) { b.src = src }

// --- per-method state hooks ---------------------------------------------------
//
// Each method's stateExtra fills the method-specific fields of liveState by
// reference; it is installed by initSnapshots next to fillExtra.

func (m *IDMethod) fillState(st *MethodState) {
	st.Kind = m.Name()
	st.Lists = m.aux.state()
}

func (m *ScoreMethod) fillState(st *MethodState) {
	st.Kind = m.Name()
	st.Lists = m.lists.state()
}

func (m *ScoreThresholdMethod) fillState(st *MethodState) {
	st.Kind = m.Name()
	st.Lists = m.short.state()
	st.ListTable = treeRefOf(m.listScore.tree)
	st.ScoreDir = m.scoreDir
}

func (m *ChunkMethod) fillState(st *MethodState) {
	st.Kind = m.Name()
	st.Lists = m.short.state()
	st.ListTable = treeRefOf(m.listChunk.tree)
	if m.chunks != nil {
		st.ChunkLower = m.chunks.lower
	}
}

func (m *ChunkTermScoreMethod) fillState(st *MethodState) {
	m.ChunkMethod.fillState(st)
	st.Kind = m.Name()
	st.FancyRefs = m.fancyRefs
	st.FancyMinW = m.fancyMinW
	st.FancyBytes = m.fancyBytes
}

// --- Restore ----------------------------------------------------------------

// Restore reattaches a method to the structures a checkpoint recorded.  It
// is the inverse of Method.State(): no pages are read and nothing is
// rebuilt; the returned method serves queries and updates against the trees
// and blobs already in the page file.  The method takes ownership of st's
// maps and slices.  Call SetSource afterwards to rewire the document source.
func Restore(cfg Config, st MethodState) (Method, error) {
	b, err := openBase(cfg, &st)
	if err != nil {
		return nil, err
	}
	// Each constructor below reattaches its trees and then runs the method's
	// initSnapshots, which COW-enables the restored trees and publishes the
	// first post-restore snapshot.
	switch st.Kind {
	case "ID", "ID-TermScore":
		m := &IDMethod{
			base:           b,
			withTermScores: st.Kind == "ID-TermScore",
			aux:            openKeyedList(b.cfg.Pool, st.Lists),
		}
		m.initSnapshots()
		return m, nil
	case "Score":
		m := &ScoreMethod{
			base:  b,
			lists: openKeyedList(b.cfg.Pool, st.Lists),
		}
		m.initSnapshots()
		return m, nil
	case "Score-Threshold":
		m := &ScoreThresholdMethod{
			base:      b,
			short:     openKeyedList(b.cfg.Pool, st.Lists),
			listScore: openListTable(b.cfg.Pool, st.ListTable),
			scoreDir:  st.ScoreDir,
		}
		m.initSnapshots()
		return m, nil
	case "Chunk", "Chunk-TermScore":
		cm := &ChunkMethod{
			base:      b,
			short:     openKeyedList(b.cfg.Pool, st.Lists),
			listChunk: openListTable(b.cfg.Pool, st.ListTable),
		}
		if len(st.ChunkLower) > 0 {
			cm.chunks = &chunker{lower: st.ChunkLower}
		}
		if st.Kind == "Chunk" {
			cm.initSnapshots()
			return cm, nil
		}
		cts := &ChunkTermScoreMethod{
			ChunkMethod: cm,
			fancyRefs:   st.FancyRefs,
			fancyMinW:   st.FancyMinW,
			fancyBytes:  st.FancyBytes,
		}
		if cts.fancyRefs == nil {
			cts.fancyRefs = map[string]blob.Ref{}
		}
		if cts.fancyMinW == nil {
			cts.fancyMinW = map[string]float32{}
		}
		cts.initSnapshots()
		return cts, nil
	default:
		return nil, fmt.Errorf("index: cannot restore unknown method kind %q", st.Kind)
	}
}
