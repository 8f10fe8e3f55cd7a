package index

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"svrdb/internal/codec"
)

// sectionTestMethod builds a method over the small corpus and inserts a
// document, so every section field the method uses is populated.
func sectionTestMethod(t *testing.T, name string, ctor func(Config) (Method, error)) (Method, Config) {
	t.Helper()
	corpus := smallCorpus()
	cfg := newTestConfig(t)
	m, err := ctor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Build(corpus, corpus.scoreFunc()); err != nil {
		t.Fatal(err)
	}
	tokens := []string{"zeppelin", "golden", "gate", "zeppelin"}
	corpus.docs[9] = tokens
	if err := m.InsertDocument(9, tokens, 500); err != nil {
		t.Fatal(err)
	}
	return m, cfg
}

// TestSectionRoundTrip pins that a method restored from its anchors and
// decoded sections has the same State as the original, and that a given
// state always encodes to the same bytes.
func TestSectionRoundTrip(t *testing.T) {
	for name, ctor := range allConstructors() {
		t.Run(name, func(t *testing.T) {
			m, cfg := sectionTestMethod(t, name, ctor)
			st := MethodState{MethodAnchors: m.Anchors()}
			for s := range NumSections {
				data := m.AppendSection(nil, s)
				if again := m.AppendSection(nil, s); !bytes.Equal(again, data) {
					t.Fatalf("%v section encodes differently on a second call", s)
				}
				if err := DecodeSection(s, data, &st); err != nil {
					t.Fatalf("decode %v section: %v", s, err)
				}
			}
			restored, err := Restore(cfg, st)
			if err != nil {
				t.Fatal(err)
			}
			if want, got := m.State(), restored.State(); !reflect.DeepEqual(got, want) {
				t.Fatalf("restored state differs:\nwant %+v\ngot  %+v", want, got)
			}
			for s := range NumSections {
				if !bytes.Equal(restored.AppendSection(nil, s), m.AppendSection(nil, s)) {
					t.Errorf("restored method encodes its %v section differently", s)
				}
			}
		})
	}
}

// TestSectionVersionTracksChanges pins the change detection a checkpoint
// relies on: a score update moves no section's version, an insert moves
// the term section's only, and a merge moves the long section's.
func TestSectionVersionTracksChanges(t *testing.T) {
	for name, ctor := range allConstructors() {
		t.Run(name, func(t *testing.T) {
			m, _ := sectionTestMethod(t, name, ctor)
			versions := func() (v [NumSections]SectionVersion) {
				for s := range NumSections {
					v[s] = m.SectionVersion(s)
				}
				return v
			}
			before := versions()
			if err := m.UpdateScore(3, 12345); err != nil {
				t.Fatal(err)
			}
			if after := versions(); after != before {
				t.Errorf("score update moved section versions")
			}
			if err := m.InsertDocument(10, []string{"airship", "gate"}, 77); err != nil {
				t.Fatal(err)
			}
			after := versions()
			if after[SectionTerms] == before[SectionTerms] || after[SectionLong] != before[SectionLong] {
				t.Errorf("insert moved sections long=%v terms=%v; want terms only",
					after[SectionLong] != before[SectionLong], after[SectionTerms] != before[SectionTerms])
			}
			if name == "Score" {
				return // MergeShortLists is a no-op for the Score method
			}
			if err := m.MergeShortLists(); err != nil {
				t.Fatal(err)
			}
			if versions()[SectionLong] == after[SectionLong] {
				t.Error("merge did not move the long section's version")
			}
		})
	}
}

// TestDecodeSectionRejectsDamage cuts every section encoding at every
// length and flips every byte: a cut must fail with codec.ErrCorrupt, and
// neither may panic.
func TestDecodeSectionRejectsDamage(t *testing.T) {
	for name, ctor := range allConstructors() {
		t.Run(name, func(t *testing.T) {
			m, _ := sectionTestMethod(t, name, ctor)
			for s := range NumSections {
				data := m.AppendSection(nil, s)
				for n := 0; n < len(data); n++ {
					var st MethodState
					if err := DecodeSection(s, data[:n], &st); !errors.Is(err, codec.ErrCorrupt) {
						t.Fatalf("%v section cut to %d of %d bytes: err = %v, want ErrCorrupt", s, n, len(data), err)
					}
				}
				flipped := append([]byte(nil), data...)
				for i := range flipped {
					flipped[i] ^= 0xff
					var st MethodState
					_ = DecodeSection(s, flipped, &st)
					flipped[i] ^= 0xff
				}
			}
		})
	}
}
