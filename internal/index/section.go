package index

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"svrdb/internal/codec"
	"svrdb/internal/storage/blob"
	"svrdb/internal/storage/pagefile"
)

// Section encoding.  A section is one tag byte (the Section number)
// followed by its fields in a fixed order.  Counts, lengths, page IDs and
// document frequencies are uvarints; document IDs are zig-zag varint deltas
// over the ascending IDs; floats are little-endian IEEE-754.  Term-keyed
// maps are written as term-sorted runs with front coding (each term stores
// the length of the prefix it shares with the previous term, then the rest),
// so a given state always encodes to the same bytes.
//
//	long:  refs(LongRefs) floats(ScoreDir) floats(ChunkLower)
//	       refs(FancyRefs) weights(FancyMinW)
//	terms: count {string}        dictionary terms in TermID order
//	       count {uvarint}       document frequencies in TermID order
//	       count {varint doc-delta, count {string}}   KnownTokens by doc

func appendSection(dst []byte, s Section, st *MethodState) []byte {
	dst = append(dst, byte(s))
	switch s {
	case SectionLong:
		dst = appendRefs(dst, st.LongRefs)
		dst = appendFloats(dst, st.ScoreDir)
		dst = appendFloats(dst, st.ChunkLower)
		dst = appendRefs(dst, st.FancyRefs)
		terms := sortedKeys(st.FancyMinW)
		dst = binary.AppendUvarint(dst, uint64(len(terms)))
		prev := ""
		for _, t := range terms {
			dst = appendFrontCoded(dst, prev, t)
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(st.FancyMinW[t]))
			prev = t
		}
	case SectionTerms:
		dst = binary.AppendUvarint(dst, uint64(len(st.Dict.Terms)))
		for _, t := range st.Dict.Terms {
			dst = appendString(dst, t)
		}
		dst = binary.AppendUvarint(dst, uint64(len(st.Dict.DocFreq)))
		for _, df := range st.Dict.DocFreq {
			dst = binary.AppendUvarint(dst, uint64(df))
		}
		docs := sortedKeys(st.KnownTokens)
		dst = binary.AppendUvarint(dst, uint64(len(docs)))
		var prev DocID
		for _, doc := range docs {
			dst = binary.AppendVarint(dst, int64(doc-prev))
			prev = doc
			terms := st.KnownTokens[doc]
			dst = binary.AppendUvarint(dst, uint64(len(terms)))
			for _, t := range terms {
				dst = appendString(dst, t)
			}
		}
	}
	return dst
}

func sortedKeys[K interface{ ~string | ~int64 }, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendFrontCoded(dst []byte, prev, t string) []byte {
	shared := 0
	for shared < len(prev) && shared < len(t) && prev[shared] == t[shared] {
		shared++
	}
	dst = binary.AppendUvarint(dst, uint64(shared))
	return appendString(dst, t[shared:])
}

func appendRefs(dst []byte, refs map[string]blob.Ref) []byte {
	terms := sortedKeys(refs)
	dst = binary.AppendUvarint(dst, uint64(len(terms)))
	prev := ""
	for _, t := range terms {
		dst = appendFrontCoded(dst, prev, t)
		r := refs[t]
		dst = binary.AppendUvarint(dst, uint64(r.FirstPage))
		dst = binary.AppendUvarint(dst, r.Length)
		prev = t
	}
	return dst
}

func appendFloats(dst []byte, fs []float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(fs)))
	for _, f := range fs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
	}
	return dst
}

// DecodeSection decodes one section written by Method.AppendSection into
// the matching fields of st.  Malformed input is a codec.ErrCorrupt error,
// never a panic.
func DecodeSection(s Section, data []byte, st *MethodState) error {
	r := sectionReader{buf: data}
	if tag := r.tag(); r.err == nil && tag != byte(s) {
		return fmt.Errorf("%w: %v section carries tag %d", codec.ErrCorrupt, s, tag)
	}
	switch s {
	case SectionLong:
		st.LongRefs = r.refs()
		st.ScoreDir = r.floats()
		st.ChunkLower = r.floats()
		st.FancyRefs = r.refs()
		if n := r.count(); n > 0 {
			st.FancyMinW = make(map[string]float32, n)
			prev := ""
			for i := 0; i < n && r.err == nil; i++ {
				t := r.frontCoded(prev)
				st.FancyMinW[t] = math.Float32frombits(r.u32())
				prev = t
			}
		}
	case SectionTerms:
		if n := r.count(); n > 0 {
			st.Dict.Terms = make([]string, n)
			for i := range st.Dict.Terms {
				st.Dict.Terms[i] = r.str()
			}
		}
		if n := r.count(); n > 0 {
			st.Dict.DocFreq = make([]int64, n)
			for i := range st.Dict.DocFreq {
				st.Dict.DocFreq[i] = int64(r.uvarint())
			}
		}
		n := r.count()
		st.KnownTokens = make(map[DocID][]string, n)
		var doc DocID
		for i := 0; i < n && r.err == nil; i++ {
			doc += DocID(r.varint())
			var terms []string
			if m := r.count(); m > 0 {
				terms = make([]string, m)
				for j := range terms {
					terms[j] = r.str()
				}
			}
			st.KnownTokens[doc] = terms
		}
	default:
		return fmt.Errorf("index: unknown catalog section %v", s)
	}
	if r.err == nil && len(r.buf) > 0 {
		r.err = fmt.Errorf("%w: %d trailing bytes", codec.ErrCorrupt, len(r.buf))
	}
	if r.err != nil {
		return fmt.Errorf("index: decode %v section: %w", s, r.err)
	}
	return nil
}

// sectionReader consumes a section encoding.  The first malformed field
// sets err; every later read returns a zero value.
type sectionReader struct {
	buf []byte
	err error
}

func (r *sectionReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated or malformed %s", codec.ErrCorrupt, what)
	}
	r.buf = nil
}

func (r *sectionReader) tag() byte {
	if len(r.buf) < 1 {
		r.fail("tag")
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

func (r *sectionReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *sectionReader) varint() int64 {
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.fail("varint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// count reads an element count.  Every element takes at least one byte, so
// a count beyond the remaining input is corrupt (and never sizes a huge
// allocation).
func (r *sectionReader) count() int {
	v := r.uvarint()
	if v > uint64(len(r.buf)) {
		r.fail("count")
		return 0
	}
	return int(v)
}

func (r *sectionReader) take(n uint64, what string) []byte {
	if n > uint64(len(r.buf)) {
		r.fail(what)
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

func (r *sectionReader) str() string { return string(r.take(r.uvarint(), "string")) }

func (r *sectionReader) frontCoded(prev string) string {
	shared := r.uvarint()
	if shared > uint64(len(prev)) {
		r.fail("front-coded term")
		return ""
	}
	return prev[:shared] + r.str()
}

func (r *sectionReader) u32() uint32 {
	b := r.take(4, "float32")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *sectionReader) floats() []float64 {
	n := r.count()
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		b := r.take(8, "float64")
		if b == nil {
			return nil
		}
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return out
}

func (r *sectionReader) refs() map[string]blob.Ref {
	n := r.count()
	if n == 0 {
		return nil
	}
	out := make(map[string]blob.Ref, n)
	prev := ""
	for i := 0; i < n && r.err == nil; i++ {
		t := r.frontCoded(prev)
		out[t] = blob.Ref{FirstPage: pagefile.PageID(r.uvarint()), Length: r.uvarint()}
		prev = t
	}
	return out
}
