package postings

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"svrdb/internal/codec"
)

// This file provides the streaming decoder over io.Reader for every
// long-list layout.  The long lists are stored as blobs and read one page
// at a time (§5.2); the decoder pulls bytes lazily through a block buffer
// so that an early-terminating query only faults in the pages of the list
// prefix it actually consumed, which is exactly the effect the Chunk and
// Score-Threshold methods rely on for their query-time advantage.  Each
// NextBatch decodes whole posting blocks directly out of the buffered page
// bytes (the body decoders live in block.go).

// streamBlockSize is the block buffer size; one on-disk page.
const streamBlockSize = 4096

// blockReader buffers reads from r and decodes scalars directly from the
// buffered bytes, refilling (and compacting the unconsumed tail) only when a
// scalar could straddle the buffer boundary.
type blockReader struct {
	r   io.Reader
	buf []byte
	pos int
	lim int
	eof bool
}

func newBlockReader(r io.Reader) *blockReader {
	size := streamBlockSize
	// When the source knows how many bytes remain (blob readers do), size
	// the buffer to the list: a tiny list gets a tiny buffer instead of a
	// page-sized one, which matters because short queries over short lists
	// pay the buffer set-up per term per query.
	if rr, ok := r.(interface{ Remaining() uint64 }); ok {
		if rem := rr.Remaining(); rem < uint64(size) {
			size = int(rem)
			if size < 16 {
				size = 16
			}
		}
	}
	return &blockReader{r: r, buf: make([]byte, size)}
}

// fill compacts the unconsumed tail to the front of the buffer and reads
// until the buffer is full or the source is exhausted.
func (b *blockReader) fill() error {
	copy(b.buf, b.buf[b.pos:b.lim])
	b.lim -= b.pos
	b.pos = 0
	for b.lim < len(b.buf) && !b.eof {
		n, err := b.r.Read(b.buf[b.lim:])
		b.lim += n
		if err == io.EOF {
			b.eof = true
			break
		}
		if err != nil {
			return err
		}
		if n == 0 {
			b.eof = true
			break
		}
	}
	return nil
}

// ensure makes at least n bytes available when the stream has them; after a
// call, avail() < n implies the source is exhausted.
func (b *blockReader) ensure(n int) error {
	if b.lim-b.pos >= n || b.eof {
		return nil
	}
	return b.fill()
}

func (b *blockReader) avail() int { return b.lim - b.pos }

func (b *blockReader) uvarint() (uint64, error) {
	if err := b.ensure(binary.MaxVarintLen64); err != nil {
		return 0, err
	}
	if b.pos == b.lim {
		return 0, io.EOF
	}
	v, n := binary.Uvarint(b.buf[b.pos:b.lim])
	if n == 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if n < 0 {
		return 0, fmt.Errorf("postings: uvarint overflow")
	}
	b.pos += n
	return v, nil
}

func (b *blockReader) float64() (float64, error) {
	if err := b.ensure(8); err != nil {
		return 0, err
	}
	if b.avail() < 8 {
		return 0, io.ErrUnexpectedEOF
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(b.buf[b.pos:]))
	b.pos += 8
	return v, nil
}

func (b *blockReader) byte() (byte, error) {
	if err := b.ensure(1); err != nil {
		return 0, err
	}
	if b.avail() < 1 {
		return 0, io.ErrUnexpectedEOF
	}
	c := b.buf[b.pos]
	b.pos++
	return c, nil
}

// view consumes the next n bytes and returns them as a contiguous slice of
// the buffer, valid until the next fill.  n must not exceed the buffer
// size; posting blocks are built small enough that a whole block body
// always fits (see blockCap).
func (b *blockReader) view(n int) ([]byte, error) {
	if n > len(b.buf) {
		return nil, fmt.Errorf("postings: block body of %d bytes exceeds %d-byte buffer", n, len(b.buf))
	}
	if err := b.ensure(n); err != nil {
		return nil, err
	}
	if b.avail() < n {
		return nil, io.ErrUnexpectedEOF
	}
	p := b.buf[b.pos : b.pos+n]
	b.pos += n
	return p, nil
}

// byteSkipper is the optional fast-skip protocol of the underlying reader;
// blob readers implement it by advancing their offset without faulting in
// the skipped pages.
type byteSkipper interface{ Skip(n uint64) error }

// skip consumes n bytes.  Bytes beyond the buffered tail are skipped on
// the underlying reader without being read when it supports that, which is
// what lets a seek jump posting blocks without touching their pages.
func (b *blockReader) skip(n int) error {
	if a := b.avail(); a >= n {
		b.pos += n
		return nil
	}
	n -= b.avail()
	b.pos = b.lim
	if !b.eof {
		if sk, ok := b.r.(byteSkipper); ok {
			return sk.Skip(uint64(n))
		}
	}
	for n > 0 {
		if err := b.fill(); err != nil {
			return err
		}
		if b.avail() == 0 {
			return io.ErrUnexpectedEOF
		}
		t := b.avail()
		if t > n {
			t = n
		}
		b.pos += t
		n -= t
	}
	return nil
}

// Stream decodes one posting-block blob lazily from an io.Reader, a whole
// block at a time into an inline scratch array.  Which layout it holds is
// fixed by the constructor that opened it: NewStreamIDList,
// NewStreamIDTermList, NewStreamScoreListDir or NewStreamChunkedList.
type Stream struct {
	br        *blockReader
	layout    byte
	count     int
	chunks    int
	dir       []float64
	decoded   int
	superLeft int // postings remaining in the open super-block
	pos       int
	entries   []Entry
	arr       [blockCap]Entry
	err       error
}

// NewStreamIDList opens an ID-layout blob (BlockIDListBuilder).
func NewStreamIDList(r io.Reader) (*Stream, error) {
	return newStream(r, nil, "id list", layoutID)
}

// NewStreamIDTermList opens an ID+term-layout blob (BlockIDTermListBuilder).
func NewStreamIDTermList(r io.Reader) (*Stream, error) {
	return newStream(r, nil, "id+term list", layoutIDTerm)
}

// NewStreamScoreListDir opens a score-layout blob (BlockScoreListBuilder),
// resolving score ranks through dir, which must be the directory the list
// was built with (see BuildScoreDir).
func NewStreamScoreListDir(r io.Reader, dir []float64) (*Stream, error) {
	return newStream(r, dir, "score list", layoutScore)
}

// NewStreamChunkedList opens a chunked-layout blob, with or without term
// weights (BlockChunkedListBuilder).
func NewStreamChunkedList(r io.Reader) (*Stream, error) {
	return newStream(r, nil, "chunked list", layoutChunk, layoutChunkTerm)
}

// newStream consumes and checks the blob header: the magic byte, version
// 1, one of the accepted layout tags, the posting count and (chunk layouts)
// the chunk count.  Every other header is an error: a zero-byte blob, a
// pre-block legacy encoding, an unknown version or another layout wrap
// codec.ErrCorrupt, and a header cut short is io.ErrUnexpectedEOF.
func newStream(r io.Reader, dir []float64, what string, layouts ...byte) (*Stream, error) {
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("postings: %s: %w: %s", what, codec.ErrCorrupt, fmt.Sprintf(format, args...))
	}
	br := newBlockReader(r)
	if err := br.ensure(2); err != nil {
		return nil, fmt.Errorf("postings: %s header: %w", what, err)
	}
	switch {
	case br.avail() == 0:
		return nil, corrupt("empty blob")
	case br.buf[br.pos] != blockMagic:
		return nil, corrupt("blob starts with %#02x, not the posting-block magic %#02x", br.buf[br.pos], blockMagic)
	case br.avail() < 2:
		return nil, corrupt("header truncated after the magic byte")
	}
	vl := br.buf[br.pos+1]
	br.pos += 2
	if vl>>4 != blockVersion {
		return nil, corrupt("posting block version %d, want %d", vl>>4, blockVersion)
	}
	d := &Stream{br: br, layout: vl & 0x0f, dir: dir}
	if !slices.Contains(layouts, d.layout) {
		return nil, corrupt("posting block layout %d, want one of %v", d.layout, layouts)
	}
	cnt, err := br.uvarint()
	if err != nil {
		return nil, fmt.Errorf("postings: %s header: posting count: %w", what, noEOF(err))
	}
	if cnt > math.MaxInt {
		return nil, corrupt("posting count %d", cnt)
	}
	d.count = int(cnt)
	if d.layout == layoutChunk || d.layout == layoutChunkTerm {
		ch, err := br.uvarint()
		if err != nil {
			return nil, fmt.Errorf("postings: %s header: chunk count: %w", what, noEOF(err))
		}
		d.chunks = int(ch)
	}
	return d, nil
}

// noEOF reports io.EOF as io.ErrUnexpectedEOF: a header or frame promised
// more bytes, so running out of them is not the end of the list.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Len reports the total number of postings in the list.
func (d *Stream) Len() int { return d.count }

// NumChunks reports the number of chunks of a chunked list (0 otherwise).
func (d *Stream) NumChunks() int { return d.chunks }

// NextBatch implements BatchIterator.
func (d *Stream) NextBatch(out []Entry) (int, error) {
	if d.err != nil {
		return 0, d.err
	}
	n := 0
	for n < len(out) {
		if d.pos < len(d.entries) {
			c := copy(out[n:], d.entries[d.pos:])
			d.pos += c
			n += c
			continue
		}
		if d.decoded >= d.count {
			break
		}
		if d.superLeft == 0 {
			sh, err := d.readHeader(d.count - d.decoded)
			if err != nil {
				return n, d.fail("super-block", err)
			}
			d.superLeft = sh.n
			continue
		}
		h, err := d.readHeader(d.blockMax())
		if err == nil {
			err = d.loadBlock(h)
		}
		if err != nil {
			return n, d.fail("block", err)
		}
		d.superLeft -= h.n
	}
	return n, nil
}

// fail records a decode error; the stream returns it from then on.
func (d *Stream) fail(level string, err error) error {
	d.err = fmt.Errorf("postings: posting %s: %w", level, noEOF(err))
	return d.err
}

// SeekDoc positions an ID or ID+term list so the next entry returned is
// the first with Doc >= doc; if none qualifies the stream is left
// exhausted.  The skip headers prove, without decoding, that a frame holds
// no such entry: a skipped block saves its body's decode, and a skipped
// super-block also saves the page reads of its multi-page span (the blob
// reader advances by offset).  Seeking backwards is a no-op.
func (d *Stream) SeekDoc(doc DocID) error {
	if d.layout != layoutID && d.layout != layoutIDTerm {
		return fmt.Errorf("postings: SeekDoc on a list of layout %d, which is not ordered by document", d.layout)
	}
	if d.err != nil {
		return d.err
	}
	for {
		for ; d.pos < len(d.entries); d.pos++ {
			if d.entries[d.pos].Doc >= doc {
				return nil
			}
		}
		if d.decoded >= d.count {
			return nil
		}
		if d.superLeft == 0 {
			sh, err := d.readHeader(d.count - d.decoded)
			if err != nil {
				return d.fail("super-block", err)
			}
			if sh.lastDoc >= doc {
				d.superLeft = sh.n
				continue
			}
			if err := d.br.skip(sh.bodyLen); err != nil {
				return d.fail("super-block", err)
			}
			d.decoded += sh.n
			continue
		}
		h, err := d.readHeader(d.blockMax())
		if err != nil {
			return d.fail("block", err)
		}
		d.superLeft -= h.n
		if h.lastDoc >= doc {
			if err := d.loadBlock(h); err != nil {
				return d.fail("block", err)
			}
			continue
		}
		if err := d.br.skip(h.bodyLen); err != nil {
			return d.fail("block", err)
		}
		d.decoded += h.n
		d.entries = nil
		d.pos = 0
	}
}
