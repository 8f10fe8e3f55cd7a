package postings

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"svrdb/internal/codec"
	"svrdb/internal/storage/blob"
	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/pagefile"
)

// The Stream*MatchesSliceDecoder tests decode each layout twice — through
// a paged blob-store reader (lazily faulted pages, a buffer sized to the
// list, offset skips) and from an in-memory byte slice — and require both
// to reproduce the builder's input posting for posting.

// decodeBothWays stores data in a paged blob store and decodes it through
// the store reader and from the in-memory slice, requiring both to equal
// want.
func decodeBothWays(t *testing.T, data []byte, want []Entry, open func(io.Reader) (*Stream, error)) {
	t.Helper()
	store := blob.NewStore(buffer.MustNew(pagefile.MustNewMem(pagefile.DefaultPageSize), 64))
	ref, err := store.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]io.Reader{"blob": store.NewReader(ref), "slice": bytes.NewReader(data)} {
		s, err := open(r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Len() != len(want) {
			t.Fatalf("%s: Len = %d, want %d", name, s.Len(), len(want))
		}
		requireSameEntries(t, want, collectAll(t, s), name)
	}
}

func TestStreamIDListMatchesSliceDecoder(t *testing.T) {
	b := NewBlockIDListBuilder()
	rng := rand.New(rand.NewSource(1))
	var want []Entry
	doc := DocID(0)
	for i := 0; i < 5000; i++ {
		doc += DocID(rng.Intn(50) + 1)
		if err := b.Add(doc); err != nil {
			t.Fatal(err)
		}
		want = append(want, Entry{Doc: doc})
	}
	decodeBothWays(t, b.Bytes(), want, NewStreamIDList)
}

func TestStreamScoreListMatchesSliceDecoder(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var docs []DocID
	var scores []float64
	score := 1e9
	for i := 0; i < 3000; i++ {
		score -= rng.Float64() * 100
		docs = append(docs, DocID(i))
		scores = append(scores, score)
	}
	// Every other score is in the directory: ranks and raw floats mix.
	var dirScores []float64
	for i := 0; i < len(scores); i += 2 {
		dirScores = append(dirScores, scores[i])
	}
	dir := BuildScoreDir(dirScores)
	b := NewBlockScoreListBuilder(dir)
	for i := range docs {
		if err := b.Add(docs[i], scores[i]); err != nil {
			t.Fatal(err)
		}
	}
	open := func(r io.Reader) (*Stream, error) { return NewStreamScoreListDir(r, dir) }
	decodeBothWays(t, b.Bytes(), scoreEntries(docs, scores), open)
}

func TestStreamChunkedListMatchesSliceDecoder(t *testing.T) {
	for _, withTerm := range []bool{false, true} {
		b := NewBlockChunkedListBuilder(withTerm)
		rng := rand.New(rand.NewSource(3))
		var chunks []testChunk
		for cid := int32(40); cid >= 1; cid -= int32(rng.Intn(3) + 1) {
			var posts []ChunkPosting
			doc := DocID(0)
			for i := 0; i < rng.Intn(100); i++ {
				doc += DocID(rng.Intn(20) + 1)
				p := ChunkPosting{Doc: doc}
				if withTerm {
					p.TermScore = rng.Float32()
				}
				posts = append(posts, p)
			}
			if err := b.AddChunk(cid, posts); err != nil {
				t.Fatal(err)
			}
			if len(posts) > 0 {
				chunks = append(chunks, testChunk{cid: cid, posts: posts})
			}
		}
		decodeBothWays(t, b.Bytes(), chunkEntries(chunks), NewStreamChunkedList)
	}
}

func TestStreamIDTermListMatchesSliceDecoder(t *testing.T) {
	b := NewBlockIDTermListBuilder()
	rng := rand.New(rand.NewSource(4))
	var want []Entry
	doc := DocID(0)
	for i := 0; i < 2000; i++ {
		doc += DocID(rng.Intn(9) + 1)
		w := rng.Float32()
		if err := b.Add(doc, w); err != nil {
			t.Fatal(err)
		}
		want = append(want, Entry{Doc: doc, TermScore: w})
	}
	decodeBothWays(t, b.Bytes(), want, NewStreamIDTermList)
}

// streamOpeners opens a blob with each layout's constructor.
var streamOpeners = map[string]func(io.Reader) (*Stream, error){
	"id":      NewStreamIDList,
	"id-term": NewStreamIDTermList,
	"score":   func(r io.Reader) (*Stream, error) { return NewStreamScoreListDir(r, nil) },
	"chunked": NewStreamChunkedList,
}

// TestStreamDecodersOnEmptyInput: an empty list is a header with a zero
// count and decodes to nothing; a zero-byte blob has no header and is
// rejected, because no builder writes one.
func TestStreamDecodersOnEmptyInput(t *testing.T) {
	empty := map[string][]byte{
		"id":      NewBlockIDListBuilder().Bytes(),
		"id-term": NewBlockIDTermListBuilder().Bytes(),
		"score":   NewBlockScoreListBuilder(nil).Bytes(),
		"chunked": NewBlockChunkedListBuilder(false).Bytes(),
	}
	for name, open := range streamOpeners {
		s, err := open(bytes.NewReader(empty[name]))
		if err != nil {
			t.Fatalf("%s: empty list: %v", name, err)
		}
		if got := collectAll(t, s); len(got) != 0 {
			t.Errorf("%s: empty list yielded %d postings", name, len(got))
		}
		if _, err := open(bytes.NewReader(nil)); !errors.Is(err, codec.ErrCorrupt) {
			t.Errorf("%s: zero-byte blob: err = %v, want codec.ErrCorrupt", name, err)
		}
	}
}

// TestStreamRejectsNonBlockHeaders: a blob is valid only if it starts with
// the magic byte, version 1 and a layout the constructor accepts, followed
// by a complete count header.
func TestStreamRejectsNonBlockHeaders(t *testing.T) {
	cases := []struct {
		name   string
		blob   []byte
		layout string // constructor to try; "" tries all four
		ok     bool
	}{
		{name: "zero bytes", blob: []byte{}},
		{name: "bare magic", blob: []byte{0x00}},
		{name: "magic and zero version", blob: []byte{0x00, 0x00}},
		{name: "legacy-shaped list", blob: []byte{0x03, 0x05, 0x02, 0x07}},
		{name: "version 2", blob: []byte{0x00, 0x21, 0x00, 0x00}},
		{name: "layout 0", blob: []byte{0x00, 0x10, 0x00, 0x00}},
		{name: "layout 6", blob: []byte{0x00, 0x16, 0x00, 0x00}},
		{name: "count missing", blob: []byte{0x00, 0x11}, layout: "id"},
		{name: "count cut short", blob: []byte{0x00, 0x11, 0x80}, layout: "id"},
		{name: "chunk count missing", blob: []byte{0x00, 0x14, 0x00}, layout: "chunked"},
		{name: "id blob as chunked", blob: []byte{0x00, 0x11, 0x00}, layout: "chunked"},
		{name: "chunk blob as id", blob: []byte{0x00, 0x14, 0x00, 0x00}, layout: "id"},
		{name: "id+term blob as id", blob: []byte{0x00, 0x12, 0x00}, layout: "id"},
		{name: "score blob as id+term", blob: []byte{0x00, 0x13, 0x00}, layout: "id-term"},
		{name: "empty id list", blob: []byte{0x00, 0x11, 0x00}, layout: "id", ok: true},
		{name: "empty chunk-term list", blob: []byte{0x00, 0x15, 0x00, 0x00}, layout: "chunked", ok: true},
	}
	for _, c := range cases {
		for name, open := range streamOpeners {
			if c.layout != "" && c.layout != name {
				continue
			}
			s, err := open(bytes.NewReader(c.blob))
			if c.ok {
				if err != nil {
					t.Errorf("%s via %s: %v", c.name, name, err)
				} else if got := collectAll(t, s); len(got) != 0 {
					t.Errorf("%s via %s: %d postings", c.name, name, len(got))
				}
				continue
			}
			if err == nil {
				t.Errorf("%s (% x) via %s: opened, want an error", c.name, c.blob, name)
			}
		}
	}
}

// TestStreamDecodersOnTruncatedInput cuts a blob of every layout at every
// prefix length: each prefix must fail — when opened, drained or sought —
// never panic and never decode as a shorter list.
func TestStreamDecodersOnTruncatedInput(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pool := scorePool(rng, 50)
	dir := BuildScoreDir(pool)
	type layout struct {
		name string
		data []byte
		open func(io.Reader) (*Stream, error)
		seek bool
	}
	var layouts []layout
	for _, size := range []int{0, 1, 3 * blockCap / 2} {
		id, idTerm := NewBlockIDListBuilder(), NewBlockIDTermListBuilder()
		ws := genWeights(rng, size, size%2 == 0)
		for i, d := range genDocs(rng, size, false) {
			if err := id.Add(d); err != nil {
				t.Fatal(err)
			}
			if err := idTerm.Add(d, ws[i]); err != nil {
				t.Fatal(err)
			}
		}
		score := NewBlockScoreListBuilder(dir)
		docs, scores := genScorePostings(rng, size, pool)
		for i := range docs {
			if err := score.Add(docs[i], scores[i]); err != nil {
				t.Fatal(err)
			}
		}
		chunk, chunkTerm := NewBlockChunkedListBuilder(false), NewBlockChunkedListBuilder(true)
		for _, c := range genChunks(rng, size, true) {
			if err := chunk.AddChunk(c.cid, c.posts); err != nil {
				t.Fatal(err)
			}
			if err := chunkTerm.AddChunk(c.cid, c.posts); err != nil {
				t.Fatal(err)
			}
		}
		openScore := func(r io.Reader) (*Stream, error) { return NewStreamScoreListDir(r, dir) }
		layouts = append(layouts,
			layout{fmt.Sprintf("id/%d", size), id.Bytes(), NewStreamIDList, true},
			layout{fmt.Sprintf("id-term/%d", size), idTerm.Bytes(), NewStreamIDTermList, true},
			layout{fmt.Sprintf("score/%d", size), score.Bytes(), openScore, false},
			layout{fmt.Sprintf("chunk/%d", size), chunk.Bytes(), NewStreamChunkedList, false},
			layout{fmt.Sprintf("chunk-term/%d", size), chunkTerm.Bytes(), NewStreamChunkedList, false},
		)
	}
	// Two super-blocks: cuts in the second one exercise the super-block
	// frame and SeekDoc's super-block skip.  Draining it costs a full
	// decode per cut, so it is cut every byte only around the boundary
	// between its super-blocks and at its tail, and at a stride elsewhere.
	big := NewBlockIDListBuilder()
	for _, d := range genDocs(rng, superFan*blockCap+blockCap/2, true) {
		if err := big.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	bigData := big.Bytes()
	layouts = append(layouts, layout{"id/two-super-blocks", bigData, NewStreamIDList, true})
	boundary := secondSuperBlock(t, bigData)
	sampled := func(cut int) bool {
		return cut%61 == 0 || (cut >= boundary-64 && cut <= boundary+64) || cut >= len(bigData)-64
	}

	for _, l := range layouts {
		full, err := l.open(bytes.NewReader(l.data))
		if err != nil {
			t.Fatalf("%s: full blob: %v", l.name, err)
		}
		want := collectAll(t, full)
		for cut := 0; cut < len(l.data); cut++ {
			if l.name == "id/two-super-blocks" && !sampled(cut) {
				continue
			}
			prefix := l.data[:cut]
			if err := drainPrefix(l.open, prefix, nil); err == nil {
				t.Fatalf("%s: %d-byte prefix of %d decoded without error", l.name, cut, len(l.data))
			}
			if l.seek && len(want) > 0 {
				if err := drainPrefix(l.open, prefix, &want[len(want)-1].Doc); err == nil {
					t.Fatalf("%s: seek on %d-byte prefix of %d succeeded", l.name, cut, len(l.data))
				}
			}
		}
	}
}

// secondSuperBlock returns the offset at which an ID blob's second
// super-block starts: past the blob header, the first super-block's skip
// header and its byteLen bytes of blocks.
func secondSuperBlock(t *testing.T, data []byte) int {
	t.Helper()
	off := 2
	var v uint64
	// posting count; then the super-block's n, first doc, span, byteLen.
	for i := 0; i < 5; i++ {
		var n int
		v, n = binary.Uvarint(data[off:])
		if n <= 0 {
			t.Fatalf("malformed header at %d", off)
		}
		off += n
	}
	if end := off + int(v); end < len(data) {
		return end
	}
	t.Fatal("blob has a single super-block")
	return 0
}

// drainPrefix opens a blob prefix, optionally seeks, and drains it,
// returning the first error.
func drainPrefix(open func(io.Reader) (*Stream, error), prefix []byte, seek *DocID) error {
	s, err := open(bytes.NewReader(prefix))
	if err != nil {
		return err
	}
	if seek != nil {
		if err := s.SeekDoc(*seek); err != nil {
			return err
		}
	}
	var buf [BatchSize]Entry
	for {
		n, err := s.NextBatch(buf[:])
		if err != nil || n == 0 {
			return err
		}
	}
}

// TestStreamRejectsHostileFrames feeds frames whose lengths, ranks and
// segment counts do not fit in an int: each must be an error, not a panic
// or a wrapped-around slice bound.
func TestStreamRejectsHostileFrames(t *testing.T) {
	const huge = uint64(1)<<63 + 1
	uv := func(vs ...uint64) []byte {
		var out []byte
		for _, v := range vs {
			out = codec.PutUvarint(out, v)
		}
		return out
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	// frame wraps body in a skip header: n postings, key summary keys.
	frame := func(n uint64, keys, body []byte) []byte { return cat(uv(n), keys, uv(uint64(len(body))), body) }
	idKeys := uv(0, 0)
	rawKey := cat(uv(0), make([]byte, 8)) // a score key stored as a raw float64
	scoreKeys := cat(rawKey, rawKey)
	chunkKeys := uv(9, 0)
	// A block whose bodyLen is huge cannot be framed honestly, so it is
	// written by hand inside a well-formed super-block.
	hugeBody := cat(uv(1), idKeys, uv(huge))
	cases := []struct {
		name string
		blob []byte
		open func(io.Reader) (*Stream, error)
	}{
		{"posting count", cat([]byte{0x00, 0x11}, uv(huge)), NewStreamIDList},
		{"block body length", cat([]byte{0x00, 0x11}, uv(1), frame(1, idKeys, hugeBody)), NewStreamIDList},
		{"score rank", cat([]byte{0x00, 0x13}, uv(1), frame(1, scoreKeys, frame(1, scoreKeys, uv(huge, 7)))),
			func(r io.Reader) (*Stream, error) { return NewStreamScoreListDir(r, []float64{1}) }},
		{"chunk segment", cat([]byte{0x00, 0x14}, uv(2, 1), frame(2, chunkKeys, frame(2, chunkKeys, cat(uv(9, huge, 3), []byte{0})))), NewStreamChunkedList},
	}
	for _, c := range cases {
		s, err := c.open(bytes.NewReader(c.blob))
		if err == nil {
			var buf [BatchSize]Entry
			for {
				var n int
				if n, err = s.NextBatch(buf[:]); err != nil || n == 0 {
					break
				}
			}
		}
		if err == nil {
			t.Errorf("%s: hostile frame decoded without error", c.name)
		}
	}
}
