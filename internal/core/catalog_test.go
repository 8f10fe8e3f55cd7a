package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"svrdb/internal/index"
	"svrdb/internal/relation"
	"svrdb/internal/storage/blob"
	"svrdb/internal/storage/pagefile"
	"svrdb/internal/text"
	"svrdb/internal/view"
	"svrdb/internal/workload"
)

// durableStateDump renders every piece of state a reopen must reproduce:
// each table's, view's and method's State (maps print in key order) and
// the crash queries' results.  Two engines of one file lineage must dump
// identically, page IDs included.
func durableStateDump(t *testing.T, e *Engine) string {
	t.Helper()
	var sb strings.Builder
	for _, name := range e.db.TableNames() {
		tbl, err := e.db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "table %s: %+v\n", name, tbl.State())
	}
	for _, name := range e.TextIndexNames() {
		ti, err := e.TextIndex(name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "index %s: view %+v\nmethod %+v\n", name, ti.view.State(), ti.method.State())
	}
	sb.WriteString(searchSnapshot(t, e))
	return sb.String()
}

// logicalStateDump is durableStateDump without page IDs and without the
// orders that depend on map iteration (dictionary term IDs, a document's
// cached terms): what two independently built engines that applied the
// same operations must agree on.
func logicalStateDump(t *testing.T, e *Engine) string {
	t.Helper()
	var sb strings.Builder
	for _, name := range e.db.TableNames() {
		tbl, err := e.db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		st := tbl.State()
		fmt.Fprintf(&sb, "table %s: rows %d bytes %d\n", name, st.Tree.Size, st.Bytes)
	}
	for _, name := range e.TextIndexNames() {
		ti, err := e.TextIndex(name)
		if err != nil {
			t.Fatal(err)
		}
		st := ti.method.State()
		fmt.Fprintf(&sb, "index %s: view rows %d; %s docs %d long %d/%d fancy %d sizes %d %d/%d %d\n",
			name, ti.view.State().Rows, st.Kind, st.NumDocs, st.LongBytes, st.LongRawBytes, st.FancyBytes,
			st.Score.Size, st.Lists.Size, st.Lists.Entries, st.ListTable.Size)
		lengths := func(refs map[string]blob.Ref) map[string]uint64 {
			out := make(map[string]uint64, len(refs))
			for term, r := range refs {
				out[term] = r.Length
			}
			return out
		}
		fmt.Fprintf(&sb, "  long %v\n  fancy %v %v\n  dir %v chunks %v\n",
			lengths(st.LongRefs), lengths(st.FancyRefs), st.FancyMinW, st.ScoreDir, st.ChunkLower)
		df := make(map[string]int64, len(st.Dict.Terms))
		for i, term := range st.Dict.Terms {
			df[term] = st.Dict.DocFreq[i]
		}
		known := make(map[index.DocID][]string, len(st.KnownTokens))
		for doc, terms := range st.KnownTokens {
			known[doc] = slices.Sorted(slices.Values(terms))
		}
		fmt.Fprintf(&sb, "  dict %v\n  known %v\n", df, known)
	}
	sb.WriteString(searchSnapshot(t, e))
	return sb.String()
}

// TestOpenRefusesCatalogV1 pins the version gate: a file whose catalog root
// is the version 1 layout (one gob record carrying every method's full
// state) fails to open with an error that names the version, and is not
// read by any fallback path.
func TestOpenRefusesCatalogV1(t *testing.T) {
	type v1MethodState struct {
		Kind        string
		NumDocs     int64
		LongRefs    map[string]blob.Ref
		Dict        text.DictionaryState
		Score       index.TreeRef
		KnownTokens map[index.DocID][]string
	}
	type v1IndexEntry struct {
		Name, Table, Column, SpecName string
		View                          view.State
		Method                        v1MethodState
	}
	type v1Catalog struct {
		Version int
		Tables  []relation.TableState
		Indexes []v1IndexEntry
		Tenants map[string]TenantQuota
	}
	old := v1Catalog{
		Version: 1,
		Indexes: []v1IndexEntry{{
			Name: "idx", Table: "Movies", Column: "desc", SpecName: "archive",
			Method: v1MethodState{
				Kind:     "Chunk",
				NumDocs:  2,
				LongRefs: map[string]blob.Ref{"golden": {FirstPage: 3, Length: 40}},
				Dict:     text.DictionaryState{Terms: []string{"golden"}, DocFreq: []int64{2}},
			},
		}},
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(old); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "v1.svrdb")
	file, err := pagefile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	pages, err := writeCatalogChain(file, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := file.Commit(metaBytes(pages[0], buf.Len())); err != nil {
		t.Fatal(err)
	}
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}

	e, err := Open(path, durableOpts())
	if err == nil {
		e.Close()
		t.Fatal("Open accepted a version 1 catalog")
	}
	if !strings.Contains(err.Error(), "catalog version 1 not supported") {
		t.Errorf("error does not name the refused version: %v", err)
	}
}

// TestCatalogSectionRewrites pins which commits rewrite which catalog
// section on a durable Chunk index: a score-only batch writes no section
// and at most one page of catalog, an insert batch rewrites the term
// section but not the long-list section, and a merge rewrites the
// long-list section.
func TestCatalogSectionRewrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sections.svrdb")
	e, err := Open(path, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	db := buildArchiveInto(t, e, 40)
	movies, err := db.Table("Movies")
	if err != nil {
		t.Fatal(err)
	}
	// Widen the vocabulary so both sections span several pages.
	for i := 0; i < 300; i++ {
		desc := fmt.Sprintf("golden gate wide%04da wide%04db wide%04dc", i, i, i)
		if err := movies.Insert(relation.Row{relation.Int(int64(50000 + i)), relation.Str("extra"), relation.Str(desc)}); err != nil {
			t.Fatal(err)
		}
	}
	ti, err := e.CreateTextIndex("idx", "Movies", "desc", IndexOptions{Method: MethodChunk, SpecName: "archive"})
	if err != nil {
		t.Fatal(err)
	}
	pagePayload := uint64(e.Pool().File().PageSize() - chainHeaderSize)
	sectionLen := func(s index.Section) uint64 {
		ti.writerMu.Lock()
		defer ti.writerMu.Unlock()
		return uint64(len(ti.method.AppendSection(nil, s)))
	}
	longLen, termsLen := sectionLen(index.SectionLong), sectionLen(index.SectionTerms)
	if longLen <= pagePayload || termsLen <= pagePayload {
		t.Fatalf("sections of %d and %d bytes fit one page; the corpus is too small to tell a rewrite from the root", longLen, termsLen)
	}
	versions := func() [index.NumSections]index.SectionVersion {
		var out [index.NumSections]index.SectionVersion
		for s, cs := range e.sections["idx"].sections {
			out[s] = cs.version
		}
		return out
	}
	// commit runs one batch and reports the catalog bytes it wrote and
	// which sections' committed copies it replaced.
	commit := func(fn func() error) (written uint64, rewrote [index.NumSections]bool) {
		t.Helper()
		before, bytesBefore := versions(), e.CatalogBytes()
		if err := e.ApplyBatch(fn); err != nil {
			t.Fatal(err)
		}
		after := versions()
		for s := range rewrote {
			rewrote[s] = after[s] != before[s]
		}
		return e.CatalogBytes() - bytesBefore, rewrote
	}

	stats, err := db.Table("Statistics")
	if err != nil {
		t.Fatal(err)
	}
	written, rewrote := commit(func() error {
		for mID := int64(1); mID <= 20; mID++ {
			if err := stats.Update(mID, map[string]relation.Value{"nVisit": relation.Int(1000 * mID)}); err != nil {
				return err
			}
		}
		return nil
	})
	if written > pagePayload || rewrote != [index.NumSections]bool{} {
		t.Errorf("score-only batch wrote %d catalog bytes (one page holds %d) and rewrote sections %v; want the root alone",
			written, pagePayload, rewrote)
	}

	written, rewrote = commit(func() error {
		return movies.Insert(relation.Row{relation.Int(90001), relation.Str("new"), relation.Str("zeppelin over the golden gate")})
	})
	if !rewrote[index.SectionTerms] || rewrote[index.SectionLong] {
		t.Errorf("insert batch rewrote sections %v; want the term section only", rewrote)
	}
	if termsLen := sectionLen(index.SectionTerms); written < termsLen || written >= termsLen+longLen {
		t.Errorf("insert batch wrote %d catalog bytes; want the term section (%d) plus a root, without the long section (%d)",
			written, termsLen, longLen)
	}

	if err := ti.MergeShortLists(); err != nil {
		t.Fatal(err)
	}
	written, rewrote = commit(func() error { return nil })
	if !rewrote[index.SectionLong] {
		t.Errorf("commit after MergeShortLists rewrote sections %v; want the long section", rewrote)
	}
	if longLen := sectionLen(index.SectionLong); written < longLen {
		t.Errorf("commit after MergeShortLists wrote %d catalog bytes, less than the long section's %d", written, longLen)
	}
}

// buildArchiveInto loads the archive workload into a durable engine.
func buildArchiveInto(t *testing.T, e *Engine, nMovies int) *relation.DB {
	t.Helper()
	params := workload.DefaultArchiveParams()
	params.NumMovies = nMovies
	if _, err := workload.BuildArchiveDB(e.DB(), params); err != nil {
		t.Fatal(err)
	}
	return e.DB()
}

// TestReopenEquivalenceProperty runs random traces of row inserts, deletes,
// content updates, score updates, merges and online create/drop on a
// durable engine carrying all six methods, closing and reopening the engine
// after every commit.  The reopened engine must reproduce every table's,
// view's and method's State and the same top-k answers: a catalog section
// that change detection failed to rewrite shows up as a stale State.
func TestReopenEquivalenceProperty(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			runReopenTrace(t, seed, 24)
		})
	}
}

func runReopenTrace(t *testing.T, seed int64, steps int) {
	const nMovies = 24
	rng := rand.New(rand.NewSource(seed))
	path := filepath.Join(t.TempDir(), "trace.svrdb")
	e, err := Open(path, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	buildArchiveInto(t, e, nMovies)
	createAllMethodIndexes(t, e)
	defer func() { e.Close() }()

	words := []string{"golden", "gate", "bridge", "san", "francisco", "zeppelin", "harbor", "ferry", "fog", "cable"}
	desc := func() string {
		n := 2 + rng.Intn(5)
		parts := make([]string, n)
		for i := range parts {
			if rng.Intn(4) == 0 {
				parts[i] = fmt.Sprintf("w%d", rng.Intn(200))
			} else {
				parts[i] = words[rng.Intn(len(words))]
			}
		}
		return strings.Join(parts, " ")
	}
	nextID := int64(70000)
	var dropped []MethodKind

	for step := 0; step < steps; step++ {
		movies, err := e.db.Table("Movies")
		if err != nil {
			t.Fatal(err)
		}
		stats, err := e.db.Table("Statistics")
		if err != nil {
			t.Fatal(err)
		}
		var ids []int64
		if err := movies.Scan(func(row relation.Row) bool { ids = append(ids, row[0].I); return true }); err != nil {
			t.Fatal(err)
		}
		var op string
		switch r := rng.Intn(10); {
		case r < 5:
			// A batch mixing the four row operations.
			op = "batch"
			err = e.ApplyBatch(func() error {
				for i := 0; i < 1+rng.Intn(6); i++ {
					pick := ids[rng.Intn(len(ids))]
					var err error
					switch rng.Intn(4) {
					case 0:
						nextID++
						ids = append(ids, nextID)
						err = movies.Insert(relation.Row{relation.Int(nextID), relation.Str("t"), relation.Str(desc())})
					case 1:
						if pick >= 70000 {
							err = movies.Delete(pick)
							ids = slices.DeleteFunc(ids, func(id int64) bool { return id == pick })
						}
					case 2:
						err = movies.Update(pick, map[string]relation.Value{"desc": relation.Str(desc())})
					case 3:
						if pick <= nMovies {
							err = stats.Update(pick, map[string]relation.Value{"nVisit": relation.Int(rng.Int63n(100000))})
						}
					}
					if err != nil {
						return err
					}
				}
				return nil
			})
		case r < 7:
			op = "score-only batch"
			err = e.ApplyBatch(func() error {
				mID := 1 + rng.Int63n(nMovies)
				return stats.Update(mID, map[string]relation.Value{"nVisit": relation.Int(rng.Int63n(100000))})
			})
		case r < 8:
			names := e.TextIndexNames()
			name := names[rng.Intn(len(names))]
			op = "merge " + name
			var ti *TextIndex
			if ti, err = e.TextIndex(name); err == nil {
				if err = ti.MergeShortLists(); err == nil {
					err = e.ApplyBatch(func() error { return nil })
				}
			}
		default:
			if len(dropped) > 0 && (rng.Intn(2) == 0 || len(e.TextIndexNames()) == 1) {
				m := dropped[0]
				dropped = dropped[1:]
				op = "create " + string(m)
				_, err = e.CreateTextIndex("idx-"+string(m), "Movies", "desc", IndexOptions{Method: m, SpecName: "archive"})
			} else {
				names := e.TextIndexNames()
				name := names[rng.Intn(len(names))]
				op = "drop " + name
				dropped = append(dropped, MethodKind(strings.TrimPrefix(name, "idx-")))
				err = e.DropTextIndex(name)
			}
		}
		if err != nil {
			t.Fatalf("step %d (%s): %v", step, op, err)
		}

		want := durableStateDump(t, e)
		if err := e.Close(); err != nil {
			t.Fatalf("step %d (%s): close: %v", step, op, err)
		}
		if e, err = Open(path, durableOpts()); err != nil {
			t.Fatalf("step %d (%s): reopen: %v", step, op, err)
		}
		if got := durableStateDump(t, e); got != want {
			t.Fatalf("step %d (%s): reopened engine diverges:\nbefore close:\n%s\nafter reopen:\n%s", step, op, want, got)
		}
	}
}

// TestCrashRecoveryMatrixSections is the crash-matrix leg for batches that
// replace catalog sections: one batch merges an index's short lists (a
// new long-list section) and inserts documents (new term sections for
// every index).  A fault at every write, torn-write, fsync and open-read
// site must recover to the pre- or post-batch state, compared on every
// table, view and method state as well as on query results.
func TestCrashRecoveryMatrixSections(t *testing.T) {
	const nMovies = 10
	dir := t.TempDir()
	template := filepath.Join(dir, "template.svrdb")
	buildDurableArchive(t, template, nMovies)
	mutate := func(e *Engine) error {
		return e.ApplyBatch(func() error {
			ti, err := e.TextIndex("idx-" + string(MethodChunk))
			if err != nil {
				return err
			}
			if err := ti.MergeShortLists(); err != nil {
				return err
			}
			movies, err := e.db.Table("Movies")
			if err != nil {
				return err
			}
			for i := int64(1); i <= 3; i++ {
				row := relation.Row{relation.Int(80000 + i), relation.Str("new"), relation.Str(fmt.Sprintf("zeppelin golden gate airship%d", i))}
				if err := movies.Insert(row); err != nil {
					return err
				}
			}
			return nil
		})
	}
	runCrashMatrix(t, dir, template, mutate, logicalStateDump)
}
