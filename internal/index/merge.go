package index

import (
	"fmt"
	"sort"

	"svrdb/internal/storage/blob"
	"svrdb/internal/text"
)

// This file implements the offline merge the paper assumes happens
// periodically: "the short lists will be periodically merged with the long
// lists bringing down document insertion cost again" (§A.3), and §5.1 notes
// the merge runs offline and is excluded from the measured update costs.
//
// MergeShortLists rebuilds the long inverted lists from the current state of
// the collection — the latest scores in the Score table and the latest
// document contents — and empties the short lists and the ListScore/ListChunk
// table, returning the index to its freshly-bulk-loaded shape.  The merge
// runs under the serialized writer with publication suppressed, so readers
// stay on the pre-merge snapshot throughout and flip to the merged index
// atomically at the end; the superseded generation — the old list trees and
// the old long-list blobs — is retired to the epoch manager and its pages are
// recycled once the last pre-merge reader leaves.

// snapshotSource materializes the live collection for a rebuild: every
// non-deleted document in the Score table, with its current tokens and
// current score.  It implements DocSource.
type snapshotSource struct {
	docs   []DocID
	tokens map[DocID][]string
	scores map[DocID]float64
}

func (s *snapshotSource) NumDocs() int { return len(s.docs) }

func (s *snapshotSource) ForEach(fn func(doc DocID, tokens []string) error) error {
	for _, doc := range s.docs {
		if err := fn(doc, s.tokens[doc]); err != nil {
			return err
		}
	}
	return nil
}

func (s *snapshotSource) Tokens(doc DocID) ([]string, error) {
	tokens, ok := s.tokens[doc]
	if !ok {
		return nil, fmt.Errorf("%w: %d not in snapshot", ErrUnknownDocument, doc)
	}
	return tokens, nil
}

func (s *snapshotSource) scoreFunc() ScoreFunc {
	return func(doc DocID) float64 { return s.scores[doc] }
}

// snapshot collects the live collection using the supplied content accessor.
func (b *base) snapshot(tokensOf func(DocID) ([]string, error)) (*snapshotSource, error) {
	snap := &snapshotSource{tokens: map[DocID][]string{}, scores: map[DocID]float64{}}
	var iterErr error
	err := b.score.ForEach(func(doc DocID, score float64, deleted bool) bool {
		if deleted {
			return true
		}
		tokens, err := tokensOf(doc)
		if err != nil {
			iterErr = fmt.Errorf("index: merge cannot read content of document %d: %w", doc, err)
			return false
		}
		snap.docs = append(snap.docs, doc)
		snap.tokens[doc] = tokens
		snap.scores[doc] = score
		return true
	})
	if iterErr != nil {
		return nil, iterErr
	}
	if err != nil {
		return nil, err
	}
	sort.Slice(snap.docs, func(i, j int) bool { return snap.docs[i] < snap.docs[j] })
	return snap, nil
}

// MergeShortLists rebuilds the ID / ID-TermScore long lists, absorbing
// postings of incrementally inserted documents and content updates, and
// empties the auxiliary list.
func (m *IDMethod) MergeShortLists() error {
	snap, err := m.snapshot(func(doc DocID) ([]string, error) {
		if m.src != nil {
			if tokens, err := m.src.Tokens(doc); err == nil {
				return tokens, nil
			}
		}
		if cached, ok := m.knownTokens.docs[doc]; ok {
			return cached, nil
		}
		return nil, fmt.Errorf("%w: %d has no available content", ErrUnknownDocument, doc)
	})
	if err != nil {
		return err
	}
	aux, err := newKeyedList(m.cfg.Pool)
	if err != nil {
		return err
	}
	aux.enableCOW(m.retirePage)
	origSrc := m.src
	oldAux, oldRefs := m.aux, m.longRefs
	m.suppress = true
	defer func() {
		m.src = origSrc
		m.suppress = false
		m.publish()
	}()
	m.longRefs = map[string]blob.Ref{}
	m.longBytes = 0
	m.longRawBytes = 0
	m.dict = text.NewDictionary()
	m.aux = aux
	if err := m.Build(snap, snap.scoreFunc()); err != nil {
		return err
	}
	if err := oldAux.tree.RetireAll(); err != nil {
		return err
	}
	m.retireBlobRefs(oldRefs)
	return nil
}

// MergeShortLists is a no-op for the Score method: its lists are always
// maintained in place and there is nothing to merge.
func (m *ScoreMethod) MergeShortLists() error { return nil }

// MergeShortLists rebuilds the Score-Threshold long lists in current-score
// order and empties the short lists and the ListScore table.
func (m *ScoreThresholdMethod) MergeShortLists() error {
	snap, err := m.snapshot(m.docTokens)
	if err != nil {
		return err
	}
	short, err := newKeyedList(m.cfg.Pool)
	if err != nil {
		return err
	}
	ls, err := newListTable(m.cfg.Pool)
	if err != nil {
		return err
	}
	short.enableCOW(m.retirePage)
	ls.enableCOW(m.retirePage)
	origSrc := m.src
	oldShort, oldListScore, oldRefs := m.short, m.listScore, m.longRefs
	m.suppress = true
	defer func() {
		m.src = origSrc
		m.suppress = false
		m.publish()
	}()
	m.longRefs = map[string]blob.Ref{}
	m.longBytes = 0
	m.longRawBytes = 0
	m.dict = text.NewDictionary()
	m.short = short
	m.listScore = ls
	if err := m.Build(snap, snap.scoreFunc()); err != nil {
		return err
	}
	if err := oldShort.tree.RetireAll(); err != nil {
		return err
	}
	if err := oldListScore.tree.RetireAll(); err != nil {
		return err
	}
	m.retireBlobRefs(oldRefs)
	return nil
}

// MergeShortLists rebuilds the Chunk long lists with chunk boundaries derived
// from the current score distribution and empties the short lists and the
// ListChunk table.
func (m *ChunkMethod) MergeShortLists() error {
	snap, err := m.snapshot(m.docTokens)
	if err != nil {
		return err
	}
	origSrc := m.src
	m.suppress = true
	defer func() {
		m.src = origSrc
		m.suppress = false
		m.publish()
	}()
	oldShort, oldListChunk, oldRefs, err := m.resetChunkState()
	if err != nil {
		return err
	}
	if err := m.Build(snap, snap.scoreFunc()); err != nil {
		return err
	}
	return m.retireChunkState(oldShort, oldListChunk, oldRefs)
}

// resetChunkState swaps in fresh, COW-enabled short-list and ListChunk
// structures and an empty long-list generation, returning the superseded ones
// for retirement after the merged snapshot is published.
func (m *ChunkMethod) resetChunkState() (oldShort *keyedList, oldListChunk *listTable, oldRefs map[string]blob.Ref, err error) {
	short, err := newKeyedList(m.cfg.Pool)
	if err != nil {
		return nil, nil, nil, err
	}
	lc, err := newListTable(m.cfg.Pool)
	if err != nil {
		return nil, nil, nil, err
	}
	short.enableCOW(m.retirePage)
	lc.enableCOW(m.retirePage)
	oldShort, oldListChunk, oldRefs = m.short, m.listChunk, m.longRefs
	m.longRefs = map[string]blob.Ref{}
	m.longBytes = 0
	m.longRawBytes = 0
	m.dict = text.NewDictionary()
	m.short = short
	m.listChunk = lc
	return oldShort, oldListChunk, oldRefs, nil
}

func (m *ChunkMethod) retireChunkState(oldShort *keyedList, oldListChunk *listTable, oldRefs map[string]blob.Ref) error {
	if err := oldShort.tree.RetireAll(); err != nil {
		return err
	}
	if err := oldListChunk.tree.RetireAll(); err != nil {
		return err
	}
	m.retireBlobRefs(oldRefs)
	return nil
}

// MergeShortLists rebuilds the Chunk-TermScore long lists and fancy lists and
// empties the short lists and the ListChunk table.
func (m *ChunkTermScoreMethod) MergeShortLists() error {
	snap, err := m.snapshot(m.docTokens)
	if err != nil {
		return err
	}
	origSrc := m.src
	m.suppress = true
	defer func() {
		m.src = origSrc
		m.suppress = false
		m.publish()
	}()
	oldShort, oldListChunk, oldRefs, err := m.resetChunkState()
	if err != nil {
		return err
	}
	oldFancyRefs := m.fancyRefs
	m.fancyBytes = 0
	if err := m.Build(snap, snap.scoreFunc()); err != nil {
		return err
	}
	if err := m.retireChunkState(oldShort, oldListChunk, oldRefs); err != nil {
		return err
	}
	m.retireBlobRefs(oldFancyRefs)
	return nil
}
