package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"sort"

	"svrdb/internal/index"
	"svrdb/internal/relation"
	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/pagefile"
	"svrdb/internal/text"
	"svrdb/internal/view"
)

// catalogVersion is bumped when the catalog encoding changes.  Dropping a
// field does not change it: gob skips encoded fields the destination
// struct lacks, so catalogs that still carry a removed field decode.
// Version 2 split each index's bulk state out of the root into separately
// committed sections; a version 1 file is refused at open.
const catalogVersion = 2

// catalogIndexEntry records one text index in the catalog: its identity, the
// knobs to rebuild its Config, the name its score spec is registered under
// (the spec itself holds Go functions and cannot be serialized), the anchors
// of its view tree and method structures, and where each of the method's
// bulk sections (index.Section) is stored.
type catalogIndexEntry struct {
	Name     string
	Table    string
	Column   string
	SpecName string

	ThresholdRatio float64
	ChunkRatio     float64
	MinChunkSize   int
	FancyListSize  int

	View    view.State
	Anchors index.MethodAnchors
	// Sections is indexed by index.Section.
	Sections []sectionRef
}

// sectionRef locates one bulk section: the head of its page chain and its
// encoded length.
type sectionRef struct {
	Head   pagefile.PageID
	Length int
}

// catalog is the root record of the durable catalog: table schemas and tree
// roots, view tree roots, each method's anchors and section locations, and
// tenant quotas.  It is gob-encoded into a page chain at every commit; the
// chain head travels in the page file's header meta, so catalog and data
// become visible atomically.  The bulk of each method's state — its
// long-list directory and its vocabulary — lives in section chains the
// root points to, which a commit rewrites only when they changed.
type catalog struct {
	Version int
	Tables  []relation.TableState
	Indexes []catalogIndexEntry
	// Tenants records registered tenant quotas.
	Tenants map[string]TenantQuota
}

// committedSection is the last committed copy of one bulk section: the
// method's version of it at that commit and the chain that holds it.
type committedSection struct {
	version index.SectionVersion
	ref     sectionRef
	pages   []pagefile.PageID
}

// indexSections tracks the committed sections of one text index.
type indexSections struct {
	ti       *TextIndex
	sections [index.NumSections]committedSection
}

// --- catalog page chain -------------------------------------------------------
//
// The root and every section are each sliced across a singly linked chain
// of ordinary pages:
// [8 next page (InvalidPageID ends the chain)][4 payload length][payload].
// Pages are allocated through the file's free list and freed at the next
// commit, so the steady state alternates between two page sets and the file
// never grows from checkpointing.  The chain is written and read directly
// against the pagefile (never through the buffer pool): catalog pages are
// touched once per commit and would only pollute the LRU.

const chainHeaderSize = 12

// metaBytes encodes the header meta: chain head + total catalog length.
func metaBytes(head pagefile.PageID, length int) []byte {
	out := make([]byte, 16)
	binary.LittleEndian.PutUint64(out[0:8], uint64(head))
	binary.LittleEndian.PutUint64(out[8:16], uint64(length))
	return out
}

func parseMeta(meta []byte) (head pagefile.PageID, length int, err error) {
	if len(meta) == 0 {
		return pagefile.InvalidPageID, 0, nil
	}
	if len(meta) < 16 {
		return 0, 0, fmt.Errorf("core: malformed catalog meta of %d bytes", len(meta))
	}
	return pagefile.PageID(binary.LittleEndian.Uint64(meta[0:8])),
		int(binary.LittleEndian.Uint64(meta[8:16])), nil
}

// writeCatalogChain stores data in freshly allocated pages and returns the
// page IDs (the first is the chain head).
func writeCatalogChain(file pagefile.File, data []byte) ([]pagefile.PageID, error) {
	pageSize := file.PageSize()
	payload := pageSize - chainHeaderSize
	if payload <= 0 {
		return nil, fmt.Errorf("core: page size %d too small for catalog chain", pageSize)
	}
	nPages := (len(data) + payload - 1) / payload
	if nPages == 0 {
		nPages = 1
	}
	ids := make([]pagefile.PageID, nPages)
	for i := range ids {
		id, err := file.Allocate()
		if err != nil {
			return nil, err
		}
		ids[i] = id
	}
	page := make([]byte, pageSize)
	for i := 0; i < nPages; i++ {
		next := pagefile.InvalidPageID
		if i+1 < nPages {
			next = ids[i+1]
		}
		lo := i * payload
		hi := min(lo+payload, len(data))
		clear(page)
		binary.LittleEndian.PutUint64(page[0:8], uint64(next))
		binary.LittleEndian.PutUint32(page[8:12], uint32(hi-lo))
		copy(page[chainHeaderSize:], data[lo:hi])
		if err := file.Write(ids[i], page); err != nil {
			return nil, err
		}
	}
	return ids, nil
}

// readCatalogChain walks the chain from head and reassembles the catalog
// bytes, returning them along with the chain's page IDs (so the next commit
// can free them).
func readCatalogChain(file pagefile.File, head pagefile.PageID, length int) ([]byte, []pagefile.PageID, error) {
	if length < 0 {
		return nil, nil, fmt.Errorf("core: catalog chain claims %d bytes", length)
	}
	var (
		out   = make([]byte, 0, min(length, int(file.NumPages())*file.PageSize()))
		ids   []pagefile.PageID
		page  = make([]byte, file.PageSize())
		id    = head
		limit = int(file.NumPages()) + 1
	)
	for id != pagefile.InvalidPageID {
		if len(ids) >= limit {
			return nil, nil, errors.New("core: catalog chain contains a cycle")
		}
		if err := file.Read(id, page); err != nil {
			return nil, nil, fmt.Errorf("core: read catalog page %d: %w", id, err)
		}
		ids = append(ids, id)
		next := pagefile.PageID(binary.LittleEndian.Uint64(page[0:8]))
		n := int(binary.LittleEndian.Uint32(page[8:12]))
		if n > len(page)-chainHeaderSize {
			return nil, nil, fmt.Errorf("core: catalog page %d claims %d payload bytes", id, n)
		}
		out = append(out, page[chainHeaderSize:chainHeaderSize+n]...)
		id = next
	}
	if len(out) < length {
		return nil, nil, fmt.Errorf("core: catalog chain holds %d bytes, header meta says %d", len(out), length)
	}
	return out[:length], ids, nil
}

// --- commit -------------------------------------------------------------------

// sectionWrite is one bulk section a commit rewrites.
type sectionWrite struct {
	at      int // position of the index in catalog.Indexes
	ti      *TextIndex
	section index.Section
	version index.SectionVersion
	data    []byte
	pages   []pagefile.PageID
}

// buildCatalog snapshots the engine into a root record and encodes every
// bulk section whose version moved since it was last committed; unchanged
// sections keep their committed chains and cost nothing.  The caller holds
// batchMu, so no batch is mid-flight; each index is additionally
// snapshotted under its writer mutex so an eager maintenance write or a
// merge cannot interleave.  Searches are not excluded — they read the
// published snapshot and never move navigational state.
func (e *Engine) buildCatalog() (*catalog, []sectionWrite) {
	cat := &catalog{Version: catalogVersion, Tenants: e.tenantQuotas()}
	for _, name := range e.db.TableNames() {
		tbl, err := e.db.Table(name)
		if err != nil {
			continue
		}
		cat.Tables = append(cat.Tables, tbl.State())
	}
	var writes []sectionWrite
	for _, name := range e.TextIndexNames() {
		ti, err := e.TextIndex(name)
		if err != nil {
			continue
		}
		committed := e.sections[name]
		if committed != nil && committed.ti != ti {
			committed = nil // dropped and recreated under the same name
		}
		ti.writerMu.Lock()
		entry := catalogIndexEntry{
			Name:           ti.name,
			Table:          ti.table,
			Column:         ti.column,
			SpecName:       ti.specName,
			ThresholdRatio: ti.cfg.ThresholdRatio,
			ChunkRatio:     ti.cfg.ChunkRatio,
			MinChunkSize:   ti.cfg.MinChunkSize,
			FancyListSize:  ti.cfg.FancyListSize,
			View:           ti.view.State(),
			Anchors:        ti.method.Anchors(),
			Sections:       make([]sectionRef, index.NumSections),
		}
		for s := range index.NumSections {
			v := ti.method.SectionVersion(s)
			if committed != nil && committed.sections[s].version == v {
				entry.Sections[s] = committed.sections[s].ref
				continue
			}
			writes = append(writes, sectionWrite{
				at: len(cat.Indexes), ti: ti, section: s, version: v,
				data: ti.method.AppendSection(nil, s),
			})
		}
		ti.writerMu.Unlock()
		cat.Indexes = append(cat.Indexes, entry)
	}
	return cat, writes
}

// commitDurable checkpoints the engine into its durable page file: flush
// every dirty page, write every changed bulk section and the root record
// into fresh page chains, free the chains they supersede (and those of
// indexes dropped since the last commit), and commit — one atomic WAL
// transaction covering data, catalog and header.  It is a no-op for
// in-memory engines.  The caller must hold batchMu (ApplyBatch and Close
// already do).
func (e *Engine) commitDurable() error {
	if !e.durable {
		return nil
	}
	pool := e.db.Pool()
	if err := pool.FlushOrdered(); err != nil {
		return err
	}
	cat, writes := e.buildCatalog()
	file := pool.File()

	// Superseded chains are freed inside this commit window and the new
	// chains allocated (possibly reusing them): the durable backend stages
	// every write until Commit, so a crash anywhere in between still
	// recovers the previous committed catalog intact.
	free := append([]pagefile.PageID(nil), e.catalogPages...)
	var dropped []string
	for name, is := range e.sections {
		if ti, err := e.TextIndex(name); err != nil || ti != is.ti {
			dropped = append(dropped, name)
		}
	}
	sort.Strings(dropped)
	for _, name := range dropped {
		for _, cs := range e.sections[name].sections {
			free = append(free, cs.pages...)
		}
	}
	for _, w := range writes {
		if is := e.sections[w.ti.name]; is != nil && is.ti == w.ti {
			free = append(free, is.sections[w.section].pages...)
		}
	}
	for _, id := range free {
		if err := file.Free(id); err != nil {
			return fmt.Errorf("core: free catalog page %d: %w", id, err)
		}
	}

	written := 0
	for i := range writes {
		w := &writes[i]
		pages, err := writeCatalogChain(file, w.data)
		if err != nil {
			return fmt.Errorf("core: write %v section of index %q: %w", w.section, w.ti.name, err)
		}
		w.pages = pages
		cat.Indexes[w.at].Sections[w.section] = sectionRef{Head: pages[0], Length: len(w.data)}
		written += len(w.data)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(cat); err != nil {
		return fmt.Errorf("core: encode catalog: %w", err)
	}
	pages, err := writeCatalogChain(file, buf.Bytes())
	if err != nil {
		return fmt.Errorf("core: write catalog: %w", err)
	}
	if err := file.Commit(metaBytes(pages[0], buf.Len())); err != nil {
		return err
	}

	e.catalogPages = pages
	for _, name := range dropped {
		delete(e.sections, name)
	}
	for _, w := range writes {
		e.trackSection(w.ti, w.section, committedSection{
			version: w.version,
			ref:     sectionRef{Head: w.pages[0], Length: len(w.data)},
			pages:   w.pages,
		})
	}
	e.catalogBytes.Add(uint64(written + buf.Len()))
	return nil
}

// trackSection records the committed copy of one section of ti.
func (e *Engine) trackSection(ti *TextIndex, s index.Section, cs committedSection) {
	is := e.sections[ti.name]
	if is == nil || is.ti != ti {
		is = &indexSections{ti: ti}
		e.sections[ti.name] = is
	}
	is.sections[s] = cs
}

// CatalogBytes reports the catalog bytes — root records and rewritten
// sections — that durable commits have written since the engine opened.
func (e *Engine) CatalogBytes() uint64 { return e.catalogBytes.Load() }

// --- open ---------------------------------------------------------------------

// OpenOptions configures Open.
type OpenOptions struct {
	// Analyzer tokenizes text columns; nil installs the default analyzer.
	// It must match the analyzer the file was built with, or restored
	// indexes will tokenize maintenance traffic differently than the build.
	Analyzer *text.Analyzer
	// Specs maps spec names (IndexOptions.SpecName) to score specifications.
	// Score specs hold Go functions and cannot live in the file; every index
	// recorded in the catalog must find its spec here by name.
	Specs map[string]view.Spec
	// PoolPages sizes the buffer pool (default 4096 pages).
	PoolPages int
	// PageSize sets the page size when creating a new file; opening an
	// existing file with a different page size is an error.  Zero accepts
	// the file's (or the disk default for a new file).
	PageSize int
}

// Open creates or opens a durable engine at path.  A fresh file yields an
// empty engine whose first commit initializes the catalog; an existing file
// is recovered to its last committed state (the pagefile replays its WAL)
// and every table, view and text index is reattached without rebuilding —
// opening is proportional to catalog size, not data size.
//
// Every ApplyBatch against a durable engine commits atomically on return,
// and Close writes a final checkpoint, so kill -9 at any point loses at
// most the batch in flight.
func Open(path string, opts OpenOptions) (*Engine, error) {
	var fileOpts []pagefile.Option
	if opts.PageSize > 0 {
		fileOpts = append(fileOpts, pagefile.WithPageSize(opts.PageSize))
	}
	file, err := pagefile.Open(path, fileOpts...)
	if err != nil {
		return nil, err
	}
	e, err := openFromFile(file, opts)
	if err != nil {
		file.Close()
		return nil, err
	}
	return e, nil
}

// openFromFile builds the engine over an already-opened (and recovered)
// durable file; split out so crash-point tests can inject faults through
// pagefile.Open themselves.
func openFromFile(file pagefile.File, opts OpenOptions) (*Engine, error) {
	poolPages := opts.PoolPages
	if poolPages <= 0 {
		poolPages = 4096
	}
	pool, err := buffer.New(file, poolPages)
	if err != nil {
		return nil, err
	}
	db := relation.NewDB(pool)
	e := NewEngine(db, Options{Analyzer: opts.Analyzer})
	e.durable = true
	// Seed the engine's spec registry from the open options so indexes
	// created online after this open (POST /v1/indexes) resolve the same
	// spec names the restored catalog uses.
	for name, spec := range opts.Specs {
		e.RegisterSpec(name, spec)
	}

	head, length, err := parseMeta(file.Meta())
	if err != nil {
		return nil, err
	}
	if head == pagefile.InvalidPageID && length == 0 && len(file.Meta()) == 0 {
		// Fresh file: nothing to restore.
		return e, nil
	}

	data, pages, err := readCatalogChain(file, head, length)
	if err != nil {
		return nil, err
	}
	var cat catalog
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&cat); err != nil {
		return nil, fmt.Errorf("core: decode catalog: %w", err)
	}
	if cat.Version != catalogVersion {
		return nil, fmt.Errorf("core: catalog version %d not supported (want %d): "+
			"files written before per-index catalog sections cannot be opened; rebuild the engine from its source data",
			cat.Version, catalogVersion)
	}
	e.catalogPages = pages
	e.restoreTenants(cat.Tenants)

	for _, ts := range cat.Tables {
		if _, err := db.RestoreTable(ts); err != nil {
			return nil, fmt.Errorf("core: restore table %q: %w", ts.Schema.Name, err)
		}
	}
	for _, ent := range cat.Indexes {
		if err := e.restoreTextIndex(ent, opts.Specs); err != nil {
			return nil, fmt.Errorf("core: restore index %q: %w", ent.Name, err)
		}
	}
	return e, nil
}

// restoreTextIndex reattaches one text index from its catalog entry: reopen
// the score view against its tree, restore the method, rewire the document
// source and the incremental-maintenance listeners.
func (e *Engine) restoreTextIndex(ent catalogIndexEntry, specs map[string]view.Spec) error {
	spec, ok := specs[ent.SpecName]
	if !ok {
		return fmt.Errorf("no spec registered under name %q (OpenOptions.Specs)", ent.SpecName)
	}
	if len(ent.Sections) != int(index.NumSections) {
		return fmt.Errorf("catalog entry lists %d sections, want %d", len(ent.Sections), index.NumSections)
	}
	tbl, err := e.db.Table(ent.Table)
	if err != nil {
		return err
	}
	colIdx, err := tbl.Schema().ColumnIndex(ent.Column)
	if err != nil {
		return err
	}

	sv, err := view.OpenScoreView(e.db, ent.Table, spec, ent.View)
	if err != nil {
		return err
	}
	cfg := index.Config{
		Pool:           e.db.Pool(),
		ThresholdRatio: ent.ThresholdRatio,
		ChunkRatio:     ent.ChunkRatio,
		MinChunkSize:   ent.MinChunkSize,
		FancyListSize:  ent.FancyListSize,
	}
	st := index.MethodState{MethodAnchors: ent.Anchors}
	var chains [index.NumSections]committedSection
	for s := range index.NumSections {
		ref := ent.Sections[s]
		data, pages, err := readCatalogChain(e.db.Pool().File(), ref.Head, ref.Length)
		if err != nil {
			return fmt.Errorf("%v section: %w", s, err)
		}
		if err := index.DecodeSection(s, data, &st); err != nil {
			return err
		}
		chains[s] = committedSection{ref: ref, pages: pages}
	}
	method, err := index.Restore(cfg, st)
	if err != nil {
		return err
	}
	method.SetSource(&tableDocSource{table: tbl, colIdx: colIdx, analyzer: e.analyzer})

	ti := &TextIndex{
		name:     ent.Name,
		table:    ent.Table,
		column:   ent.Column,
		specName: ent.SpecName,
		cfg:      cfg,
		engine:   e,
		view:     sv,
		method:   method,
	}
	sv.OnScoreChange(ti.onScoreChange)
	if err := sv.Attach(); err != nil {
		return err
	}
	ti.baseHook = tbl.OnChange(ti.onBaseRowChange)

	for s := range index.NumSections {
		chains[s].version = method.SectionVersion(s)
	}
	e.sections[ent.Name] = &indexSections{ti: ti, sections: chains}

	e.mu.Lock()
	e.indexes[ent.Name] = ti
	e.mu.Unlock()
	return nil
}
