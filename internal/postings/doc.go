// Package postings defines the posting representations shared by all the
// inverted-list methods in the paper, the compressed on-disk layouts of the
// long (immutable) lists, and the iterator/merge machinery the query
// algorithms are written against.
//
// Five long-list layouts are provided, one per index method family:
//
//   - IDList            — ascending document IDs, d-gap encoded (the ID
//     method, §4.2.1).
//   - ScoreList         — (score descending, docID) with the score stored in
//     every posting (the Score-Threshold long list, §4.3.1).
//   - ChunkedList       — postings grouped into chunks ordered by descending
//     chunk ID; within a chunk ascending docIDs, d-gap encoded; the chunk ID
//     is stored once per chunk (the Chunk method, §4.3.2).
//   - IDTermList        — ascending docIDs each carrying a float32 term
//     weight (the ID-TermScore baseline and the fancy lists of §4.3.3).
//   - ChunkedTermList   — the Chunk layout with a float32 term weight per
//     posting (the Chunk-TermScore method, §4.3.3).
//
// Every layout is written in one wire format, the posting-block format
// (block.go): fixed-capacity blocks with delta + bitpacked bodies, grouped
// under super-blocks whose skip headers let a reader seek past whole page
// runs without decoding them.  One decoder type, Stream, reads all of them
// (stream.go); its per-layout constructors reject any blob whose header
// does not name their layout.  ID-ordered lists can seek (SeekDoc).  See
// the block.go comment for the byte-level grammar and ARCHITECTURE.md
// "Posting block format" for the design rationale.
//
// Iteration has one protocol, BatchIterator: decoders, short-list cursors
// and the merge combinators all move postings a batch at a time.  Short
// lists live in B+-trees (package index) but are exposed to the query
// algorithms through the same protocol, so the union
// "ShortList(t) ∪ LongList(t)" of Algorithm 2 is a single merged stream.
//
// See ARCHITECTURE.md for the layer map — where this package sits in the
// stack — and for the repo-wide concurrency contract.
package postings
