package pagefile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// DefaultDiskPageSize is the page size of a durable file unless the creator
// overrides it.  4 KiB matches the physical sector/page granularity of the
// disks the paper's cost model charges per page touched.
const DefaultDiskPageSize = 4096

// formatVersion is bumped whenever the on-disk layout changes.
const formatVersion = 1

// minDiskPageSize keeps the fixed header comfortably inside physical page 0.
const minDiskPageSize = 512

// maxDiskPageSize bounds the page size a WAL record may claim, so a corrupt
// record cannot make recovery compute an absurd record length before the
// checksum gets a chance to reject it.
const maxDiskPageSize = 1 << 22

// metaMax bounds the opaque application root stored in the header (the
// engine keeps a catalog pointer there, a few dozen bytes).
const metaMax = 256

var (
	headerMagic = [8]byte{'S', 'V', 'R', 'D', 'B', 'P', 'F', '1'}
	walMagic    = uint64(0x53565257414c3032) // "SVRWAL02"
	// freePageMagic stamps the first 8 bytes of an on-disk free-list chain
	// page so that a corrupted chain is detected instead of walked blindly.
	freePageMagic = uint64(0x5356524652454531) // "SVRFREE1"
)

// crcTable is the Castagnoli polynomial, the common choice for storage
// checksums (hardware accelerated on most CPUs).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt is wrapped into Open errors when neither the header nor the
// write-ahead log yields a consistent committed state.
var ErrCorrupt = errors.New("pagefile: file is corrupt")

// ErrClosed is returned by operations on a closed durable file.
var ErrClosed = errors.New("pagefile: file is closed")

// header is the decoded form of physical page 0.
//
// Layout (little-endian):
//
//	[0:8]    magic "SVRDBPF1"
//	[8:12]   format version
//	[12:16]  page size
//	[16:24]  committed page count
//	[24:32]  free-list chain head (InvalidPageID when empty)
//	[32:40]  free-list length
//	[40:48]  last committed WAL LSN
//	[48:52]  meta length
//	[52:52+metaMax] meta (opaque application root)
//	[52+metaMax : +4] CRC32-C over all preceding bytes
type header struct {
	pageSize  int
	nPages    uint64
	freeHead  PageID
	freeCount uint64
	lsn       uint64
	meta      []byte
}

const headerSize = 52 + metaMax + 4

func (h *header) encode() []byte {
	buf := make([]byte, headerSize)
	copy(buf[0:8], headerMagic[:])
	binary.LittleEndian.PutUint32(buf[8:12], formatVersion)
	binary.LittleEndian.PutUint32(buf[12:16], uint32(h.pageSize))
	binary.LittleEndian.PutUint64(buf[16:24], h.nPages)
	binary.LittleEndian.PutUint64(buf[24:32], uint64(h.freeHead))
	binary.LittleEndian.PutUint64(buf[32:40], h.freeCount)
	binary.LittleEndian.PutUint64(buf[40:48], h.lsn)
	binary.LittleEndian.PutUint32(buf[48:52], uint32(len(h.meta)))
	copy(buf[52:52+metaMax], h.meta)
	crc := crc32.Checksum(buf[:headerSize-4], crcTable)
	binary.LittleEndian.PutUint32(buf[headerSize-4:], crc)
	return buf
}

func decodeHeader(buf []byte) (*header, error) {
	if len(buf) < headerSize {
		return nil, fmt.Errorf("%w: short header (%d bytes)", ErrCorrupt, len(buf))
	}
	if !bytes.Equal(buf[0:8], headerMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if crc := crc32.Checksum(buf[:headerSize-4], crcTable); crc != binary.LittleEndian.Uint32(buf[headerSize-4:headerSize]) {
		return nil, fmt.Errorf("%w: header checksum mismatch", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(buf[8:12]); v != formatVersion {
		return nil, fmt.Errorf("pagefile: format version %d not supported (want %d)", v, formatVersion)
	}
	h := &header{
		pageSize:  int(binary.LittleEndian.Uint32(buf[12:16])),
		nPages:    binary.LittleEndian.Uint64(buf[16:24]),
		freeHead:  PageID(binary.LittleEndian.Uint64(buf[24:32])),
		freeCount: binary.LittleEndian.Uint64(buf[32:40]),
		lsn:       binary.LittleEndian.Uint64(buf[40:48]),
	}
	metaLen := binary.LittleEndian.Uint32(buf[48:52])
	if metaLen > metaMax {
		return nil, fmt.Errorf("%w: meta length %d exceeds %d", ErrCorrupt, metaLen, metaMax)
	}
	if metaLen > 0 {
		h.meta = append([]byte(nil), buf[52:52+metaLen]...)
	}
	if h.pageSize < minDiskPageSize {
		return nil, fmt.Errorf("%w: page size %d below minimum %d", ErrCorrupt, h.pageSize, minDiskPageSize)
	}
	return h, nil
}

// backing is the subset of *os.File the durable backend needs; the fault
// injector wraps it to fail deterministically at chosen I/O sites.
type backing interface {
	io.ReaderAt
	io.WriterAt
	Sync() error
	Truncate(size int64) error
	Close() error
}

// Option configures Open.
type Option func(*openOptions)

type openOptions struct {
	pageSize int
	faults   *FaultInjector
}

// WithPageSize sets the page size used when creating a new file.  Opening an
// existing file with a different explicit page size is an error; pass 0 (or
// omit the option) to accept whatever the header records.
func WithPageSize(n int) Option { return func(o *openOptions) { o.pageSize = n } }

// WithFaults installs a deterministic fault-injection layer under the file:
// every WriteAt/ReadAt/Sync on the data file and the WAL consults the
// injector first.  Crash-point tests use it to fail the Nth I/O, tear a
// write in half, or break fsync, then reopen without faults and assert
// recovery.
func WithFaults(fi *FaultInjector) Option { return func(o *openOptions) { o.faults = fi } }

// diskFile is the durable backend: a page file at path with a checksummed
// header on physical page 0 (logical page id N lives at byte offset
// (N+1)·pageSize) and a write-ahead log at path+".wal".
//
// All writes — page writes, allocations, frees — are staged in memory and
// reach the data file only inside Commit:
//
//  1. one WAL record holding every staged page image plus the post-commit
//     header state is written and fsynced (the commit point);
//  2. the staged images are written back in place in ascending page order,
//     the header is rewritten, and the data file is fsynced;
//  3. the WAL is truncated (the checkpoint).
//
// A crash before (1) completes loses the staged writes and recovers the
// previous committed state; a crash after (1) replays the record on the
// next Open and recovers the new state.  Committed pages are therefore
// never overwritten in place by uncommitted data, which also makes it safe
// for a commit window to reuse pages freed in the same window.
//
// The free list is persisted as an on-disk chain threaded through the freed
// pages themselves: each carries [freePageMagic][next PageID] in its first
// 16 bytes, the header records the chain head and length, and Free stages
// the chain page like any other write so the chain always commits
// atomically with the state that freed it.
type diskFile struct {
	pageSize int
	path     string
	data     backing
	wal      backing

	mu        sync.RWMutex
	closed    bool
	nPages    uint64 // allocated, including uncommitted allocations
	committed uint64 // page count as of the last commit
	staged    map[PageID][]byte
	free      []PageID // stack; free[len-1] is the chain head
	freeSet   map[PageID]struct{}
	lsn       uint64
	meta      []byte

	counters
}

// WALPath returns the write-ahead log path for a data file path.
func WALPath(path string) string { return path + ".wal" }

// Open creates or opens a durable page file at path.  A new file is
// initialized with an empty committed header before Open returns; an
// existing file is recovered: the header is validated, any complete WAL
// record is replayed, a torn WAL tail is discarded, and the persisted free
// list is loaded.
func Open(path string, opts ...Option) (File, error) {
	var o openOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.pageSize != 0 && o.pageSize < minDiskPageSize {
		return nil, fmt.Errorf("%w: %d (minimum %d)", ErrBadPageSize, o.pageSize, minDiskPageSize)
	}

	dataFD, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pagefile: open %s: %w", path, err)
	}
	walFD, err := os.OpenFile(WALPath(path), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		dataFD.Close()
		return nil, fmt.Errorf("pagefile: open %s: %w", WALPath(path), err)
	}

	f := &diskFile{
		path:    path,
		staged:  map[PageID][]byte{},
		freeSet: map[PageID]struct{}{},
	}
	f.data = o.faults.wrap(dataFD)
	f.wal = o.faults.wrap(walFD)

	info, err := dataFD.Stat()
	if err != nil {
		f.closeHandles()
		return nil, fmt.Errorf("pagefile: stat %s: %w", path, err)
	}

	if info.Size() == 0 {
		// Fresh file: write an empty committed header so that a crash right
		// after creation still opens cleanly.
		f.pageSize = o.pageSize
		if f.pageSize == 0 {
			f.pageSize = DefaultDiskPageSize
		}
		hdr := header{pageSize: f.pageSize, freeHead: InvalidPageID}
		if err := f.writeHeader(&hdr); err != nil {
			f.closeHandles()
			return nil, err
		}
		if err := f.data.Sync(); err != nil {
			f.closeHandles()
			return nil, fmt.Errorf("pagefile: sync %s: %w", path, err)
		}
		f.fsyncs.Add(1)
		return f, nil
	}

	if err := f.recover(o.pageSize); err != nil {
		f.closeHandles()
		return nil, err
	}
	return f, nil
}

func (f *diskFile) closeHandles() {
	f.data.Close()
	f.wal.Close()
}

// writeHeader encodes hdr into physical page 0 (padded to a full page).
func (f *diskFile) writeHeader(hdr *header) error {
	page := make([]byte, f.pageSize)
	copy(page, hdr.encode())
	if _, err := f.data.WriteAt(page, 0); err != nil {
		return fmt.Errorf("pagefile: write header: %w", err)
	}
	return nil
}

// pageOffset maps a logical page ID to its byte offset in the data file.
func (f *diskFile) pageOffset(id PageID) int64 {
	return (int64(id) + 1) * int64(f.pageSize)
}

// --- recovery ---------------------------------------------------------------

// walRecord is one decoded commit record.
//
// Layout (little-endian):
//
//	[0:8]   walMagic
//	[8:16]  LSN
//	[16:24] post-commit page count
//	[24:32] post-commit free-list head
//	[32:40] post-commit free-list length
//	[40:44] page size (records are self-describing so a torn header does
//	        not strand the replay without the geometry it needs)
//	[44:48] meta length
//	[48:52] page image count
//	[52:...] meta bytes, then count × ([8 page ID][4 length n][n image bytes])
//	[...:+4] CRC32-C over everything above
//
// An image is stored without its trailing zero bytes (n ≤ page size) and
// replayed zero-filled: a freed page carries only its 16-byte free-list
// link, and a partly filled tree or catalog page only its used prefix.
type walRecord struct {
	header
	pages  []PageID
	images [][]byte
}

func (f *diskFile) encodeWALRecord(rec *walRecord) []byte {
	images := make([][]byte, len(rec.images))
	size := 52 + len(rec.meta) + 4
	for i, img := range rec.images {
		images[i] = trimZeros(img[:f.pageSize])
		size += 12 + len(images[i])
	}
	buf := make([]byte, 0, size)
	var scratch [8]byte
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:], v)
		buf = append(buf, scratch[:8]...)
	}
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(scratch[:4], v)
		buf = append(buf, scratch[:4]...)
	}
	put64(walMagic)
	put64(rec.lsn)
	put64(rec.nPages)
	put64(uint64(rec.freeHead))
	put64(rec.freeCount)
	put32(uint32(f.pageSize))
	put32(uint32(len(rec.meta)))
	put32(uint32(len(rec.pages)))
	buf = append(buf, rec.meta...)
	for i, id := range rec.pages {
		put64(uint64(id))
		put32(uint32(len(images[i])))
		buf = append(buf, images[i]...)
	}
	put32(crc32.Checksum(buf, crcTable))
	return buf
}

// trimZeros returns b without its trailing zero bytes.
func trimZeros(b []byte) []byte {
	n := len(b)
	for n >= 8 && binary.LittleEndian.Uint64(b[n-8:n]) == 0 {
		n -= 8
	}
	for n > 0 && b[n-1] == 0 {
		n--
	}
	return b[:n]
}

// decodeWALRecord parses one record from buf, returning it and the bytes
// consumed.  A nil record with nil error means buf holds no (further)
// record; a nil record with a non-nil error means a torn or corrupt record.
// The record carries its own page size; a non-zero wantPageSize is checked
// against it.
func decodeWALRecord(buf []byte, wantPageSize int) (*walRecord, int, error) {
	if len(buf) < 52 {
		if isAllZero(buf) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("%w: truncated WAL record header", ErrCorrupt)
	}
	if binary.LittleEndian.Uint64(buf[0:8]) != walMagic {
		if isAllZero(buf[:8]) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("%w: bad WAL record magic", ErrCorrupt)
	}
	pageSize := int(binary.LittleEndian.Uint32(buf[40:44]))
	if pageSize < minDiskPageSize || pageSize > maxDiskPageSize {
		return nil, 0, fmt.Errorf("%w: WAL record page size %d", ErrCorrupt, pageSize)
	}
	if wantPageSize != 0 && pageSize != wantPageSize {
		return nil, 0, fmt.Errorf("%w: WAL record page size %d, want %d", ErrCorrupt, pageSize, wantPageSize)
	}
	metaLen := binary.LittleEndian.Uint32(buf[44:48])
	count := binary.LittleEndian.Uint32(buf[48:52])
	if metaLen > metaMax {
		return nil, 0, fmt.Errorf("%w: WAL meta length %d", ErrCorrupt, metaLen)
	}
	// Walk the image lengths to find the record's end, then verify the
	// checksum before allocating anything.
	total := 52 + int(metaLen)
	for i := uint32(0); i < count; i++ {
		if len(buf) < total+12 {
			return nil, 0, fmt.Errorf("%w: torn WAL record (image %d of %d cut short)", ErrCorrupt, i, count)
		}
		n := int(binary.LittleEndian.Uint32(buf[total+8 : total+12]))
		if n > pageSize {
			return nil, 0, fmt.Errorf("%w: WAL image of %d bytes exceeds page size %d", ErrCorrupt, n, pageSize)
		}
		total += 12 + n
	}
	total += 4
	if len(buf) < total {
		return nil, 0, fmt.Errorf("%w: torn WAL record (%d of %d bytes)", ErrCorrupt, len(buf), total)
	}
	body := buf[:total-4]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(buf[total-4:total]) {
		return nil, 0, fmt.Errorf("%w: WAL record checksum mismatch", ErrCorrupt)
	}
	rec := &walRecord{
		header: header{
			pageSize:  pageSize,
			nPages:    binary.LittleEndian.Uint64(buf[16:24]),
			freeHead:  PageID(binary.LittleEndian.Uint64(buf[24:32])),
			freeCount: binary.LittleEndian.Uint64(buf[32:40]),
			lsn:       binary.LittleEndian.Uint64(buf[8:16]),
		},
	}
	if metaLen > 0 {
		rec.meta = append([]byte(nil), buf[52:52+metaLen]...)
	}
	off := 52 + int(metaLen)
	for i := uint32(0); i < count; i++ {
		id := PageID(binary.LittleEndian.Uint64(buf[off : off+8]))
		n := int(binary.LittleEndian.Uint32(buf[off+8 : off+12]))
		off += 12
		img := make([]byte, pageSize)
		copy(img, buf[off:off+n])
		rec.pages = append(rec.pages, id)
		rec.images = append(rec.images, img)
		off += n
	}
	return rec, total, nil
}

func isAllZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// recover brings the file to its last committed state: validate the header,
// replay any complete WAL record the header does not yet reflect, discard a
// torn WAL tail, truncate the data file to the committed length, and load
// the persisted free list.
func (f *diskFile) recover(wantPageSize int) error {
	hdrBuf := make([]byte, headerSize)
	var hdr *header
	if _, err := f.data.ReadAt(hdrBuf, 0); err == nil {
		if h, err := decodeHeader(hdrBuf); err == nil {
			hdr = h
		} else if errors.Is(err, ErrCorrupt) {
			// Torn header write: fall through to the WAL, which always holds
			// the record that was rewriting it.
			f.tornPages.Add(1)
		} else {
			return err
		}
	}

	// Pin down the geometry the WAL must be parsed with.  The header is
	// authoritative when intact; otherwise each record self-describes its
	// page size (validated against the caller's, if given), so a torn header
	// never strands the replay.
	pageSize := wantPageSize
	if hdr != nil {
		if wantPageSize != 0 && hdr.pageSize != wantPageSize {
			return fmt.Errorf("%w: file has page size %d, caller wants %d", ErrBadPageSize, hdr.pageSize, wantPageSize)
		}
		pageSize = hdr.pageSize
	}

	walBuf, err := readAll(f.wal)
	if err != nil {
		return fmt.Errorf("pagefile: read WAL: %w", err)
	}
	var last *walRecord
	for off := 0; off < len(walBuf); {
		rec, n, err := decodeWALRecord(walBuf[off:], pageSize)
		if err != nil {
			// Torn tail: the commit that wrote it never reached its fsync
			// acknowledgement, so discarding it is the correct recovery.
			f.tornPages.Add(1)
			break
		}
		if rec == nil {
			break
		}
		last = rec
		off += n
	}
	if last != nil {
		pageSize = last.header.pageSize
	}
	if pageSize == 0 {
		// No header, no WAL record: the corrupt-file error below fires; the
		// default only keeps pageOffset arithmetic sane until then.
		pageSize = DefaultDiskPageSize
	}
	f.pageSize = pageSize

	switch {
	case hdr == nil && last == nil:
		return fmt.Errorf("%w: no valid header and no valid WAL record in %s", ErrCorrupt, f.path)
	case last != nil && (hdr == nil || last.lsn > hdr.lsn):
		// Roll the committed-but-not-applied record forward.
		for i, id := range last.pages {
			if _, err := f.data.WriteAt(last.images[i], f.pageOffset(id)); err != nil {
				return fmt.Errorf("pagefile: recovery write page %d: %w", id, err)
			}
		}
		if err := f.writeHeader(&last.header); err != nil {
			return err
		}
		if err := f.data.Sync(); err != nil {
			return fmt.Errorf("pagefile: recovery sync: %w", err)
		}
		f.fsyncs.Add(1)
		f.recoveries.Add(1)
		hdr = &last.header
	}

	f.nPages = hdr.nPages
	f.committed = hdr.nPages
	f.lsn = hdr.lsn
	f.meta = append([]byte(nil), hdr.meta...)

	// Drop any garbage past the committed end (pages allocated by an
	// uncommitted window before the crash) and the consumed WAL.
	if err := f.data.Truncate(f.pageOffset(PageID(f.nPages))); err != nil {
		return fmt.Errorf("pagefile: truncate data: %w", err)
	}
	if err := f.wal.Truncate(0); err != nil {
		return fmt.Errorf("pagefile: truncate WAL: %w", err)
	}

	return f.loadFreeList(hdr.freeHead, hdr.freeCount)
}

// loadFreeList walks the on-disk chain and rebuilds the in-memory stack so
// that allocation order after a reopen matches the order before it
// (chain head = top of stack).
func (f *diskFile) loadFreeList(head PageID, count uint64) error {
	if count == 0 {
		return nil
	}
	chain := make([]PageID, 0, count)
	page := make([]byte, f.pageSize)
	id := head
	for i := uint64(0); i < count; i++ {
		if uint64(id) >= f.nPages {
			return fmt.Errorf("%w: free-list chain points at page %d of %d", ErrCorrupt, id, f.nPages)
		}
		if _, err := f.data.ReadAt(page, f.pageOffset(id)); err != nil {
			return fmt.Errorf("pagefile: read free-list page %d: %w", id, err)
		}
		if binary.LittleEndian.Uint64(page[0:8]) != freePageMagic {
			return fmt.Errorf("%w: free-list page %d lacks chain magic", ErrCorrupt, id)
		}
		chain = append(chain, id)
		id = PageID(binary.LittleEndian.Uint64(page[8:16]))
	}
	if id != InvalidPageID {
		return fmt.Errorf("%w: free-list chain longer than recorded length %d", ErrCorrupt, count)
	}
	// chain[0] is the head; the stack pops from the end.
	f.free = make([]PageID, len(chain))
	for i, p := range chain {
		f.free[len(chain)-1-i] = p
	}
	for _, p := range chain {
		f.freeSet[p] = struct{}{}
	}
	return nil
}

func readAll(b backing) ([]byte, error) {
	var out []byte
	buf := make([]byte, 1<<16)
	var off int64
	for {
		n, err := b.ReadAt(buf, off)
		out = append(out, buf[:n]...)
		off += int64(n)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return out, nil
		}
	}
}

// --- File interface ---------------------------------------------------------

func (f *diskFile) PageSize() int { return f.pageSize }

func (f *diskFile) NumPages() uint64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.nPages
}

func (f *diskFile) SetReadLatency(d time.Duration) {
	// The durable backing pays real I/O latency; the simulation knob is a
	// no-op here (it exists for the in-memory benchmarks).
}

func (f *diskFile) ReadLatency() time.Duration { return 0 }

// stagePageLocked returns a zeroed staging buffer for id, reusing an
// existing staged buffer when present.  The caller holds f.mu.
func (f *diskFile) stagePageLocked(id PageID) []byte {
	buf, ok := f.staged[id]
	if !ok {
		buf = make([]byte, f.pageSize)
		f.staged[id] = buf
	} else {
		clear(buf)
	}
	return buf
}

func (f *diskFile) Allocate() (PageID, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return InvalidPageID, ErrClosed
	}
	f.allocs.Add(1)
	if n := len(f.free); n > 0 {
		id := f.free[n-1]
		f.free = f.free[:n-1]
		delete(f.freeSet, id)
		f.reuses.Add(1)
		// Hand the page back zeroed: the staged zero image also overwrites
		// the chain link the page carried while free.
		f.stagePageLocked(id)
		return id, nil
	}
	id := PageID(f.nPages)
	f.nPages++
	f.stagePageLocked(id)
	return id, nil
}

func (f *diskFile) AllocateN(n int) (PageID, error) {
	if n <= 0 {
		return InvalidPageID, fmt.Errorf("pagefile: AllocateN(%d): n must be positive", n)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return InvalidPageID, ErrClosed
	}
	f.allocs.Add(uint64(n))
	if first, ok := f.takeFreeRunLocked(n); ok {
		f.reuses.Add(uint64(n))
		for i := 0; i < n; i++ {
			f.stagePageLocked(first + PageID(i))
		}
		return first, nil
	}
	first := PageID(f.nPages)
	for i := 0; i < n; i++ {
		f.stagePageLocked(first + PageID(i))
	}
	f.nPages += uint64(n)
	return first, nil
}

// takeFreeRunLocked removes an ID-contiguous, slot-adjacent run of n pages
// from the free stack.  Because the removed slots are adjacent, the on-page
// chain breaks at exactly one point: the page that sat just above the
// segment must now link to the page just below it.  Restaging that single
// link keeps the chain a future loadFreeList walks consistent with the
// stack, and the restage rides the normal WAL commit, so a crash either
// keeps the old chain or installs the new one whole.
func (f *diskFile) takeFreeRunLocked(n int) (PageID, bool) {
	i, first, ok := findFreeRun(f.free, n)
	if !ok {
		return InvalidPageID, false
	}
	if above := i + n; above < len(f.free) {
		below := InvalidPageID
		if i > 0 {
			below = f.free[i-1]
		}
		page := f.stagePageLocked(f.free[above])
		binary.LittleEndian.PutUint64(page[0:8], freePageMagic)
		binary.LittleEndian.PutUint64(page[8:16], uint64(below))
	}
	for k := 0; k < n; k++ {
		delete(f.freeSet, f.free[i+k])
	}
	f.free = append(f.free[:i], f.free[i+n:]...)
	return first, true
}

func (f *diskFile) Free(id PageID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	if uint64(id) >= f.nPages {
		return fmt.Errorf("%w: free page %d of %d", ErrPageOutOfRange, id, f.nPages)
	}
	if _, dup := f.freeSet[id]; dup {
		return fmt.Errorf("pagefile: double free of page %d", id)
	}
	next := InvalidPageID
	if n := len(f.free); n > 0 {
		next = f.free[n-1]
	}
	page := f.stagePageLocked(id)
	binary.LittleEndian.PutUint64(page[0:8], freePageMagic)
	binary.LittleEndian.PutUint64(page[8:16], uint64(next))
	f.freeSet[id] = struct{}{}
	f.free = append(f.free, id)
	f.frees.Add(1)
	return nil
}

func (f *diskFile) FreePages() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.free)
}

func (f *diskFile) Read(id PageID, dst []byte) error {
	if len(dst) < f.pageSize {
		return fmt.Errorf("pagefile: read buffer of %d bytes is smaller than page size %d", len(dst), f.pageSize)
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.closed {
		return ErrClosed
	}
	if uint64(id) >= f.nPages {
		return fmt.Errorf("%w: read page %d of %d", ErrPageOutOfRange, id, f.nPages)
	}
	f.reads.Add(1)
	f.bytesRead.Add(uint64(f.pageSize))
	if img, ok := f.staged[id]; ok {
		copy(dst, img)
		return nil
	}
	if uint64(id) >= f.committed {
		// Allocated this window but never written or staged (cannot happen
		// through the public API, which stages zeros on allocation); keep
		// the invariant anyway.
		clear(dst[:f.pageSize])
		return nil
	}
	if _, err := f.data.ReadAt(dst[:f.pageSize], f.pageOffset(id)); err != nil {
		return fmt.Errorf("pagefile: read page %d: %w", id, err)
	}
	return nil
}

func (f *diskFile) Write(id PageID, src []byte) error {
	if len(src) < f.pageSize {
		return fmt.Errorf("pagefile: write buffer of %d bytes is smaller than page size %d", len(src), f.pageSize)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	if uint64(id) >= f.nPages {
		return fmt.Errorf("%w: write page %d of %d", ErrPageOutOfRange, id, f.nPages)
	}
	f.writes.Add(1)
	f.bytesWritten.Add(uint64(f.pageSize))
	buf, ok := f.staged[id]
	if !ok {
		buf = make([]byte, f.pageSize)
		f.staged[id] = buf
	}
	copy(buf, src[:f.pageSize])
	return nil
}

// Commit runs the WAL commit protocol described on diskFile.  It is a no-op
// when nothing changed since the last commit.
func (f *diskFile) Commit(meta []byte) error {
	if len(meta) > metaMax {
		return fmt.Errorf("pagefile: commit meta of %d bytes exceeds maximum %d", len(meta), metaMax)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	if len(f.staged) == 0 && f.nPages == f.committed && bytes.Equal(meta, f.meta) {
		return nil
	}

	rec := walRecord{
		header: header{
			pageSize:  f.pageSize,
			nPages:    f.nPages,
			freeHead:  InvalidPageID,
			freeCount: uint64(len(f.free)),
			lsn:       f.lsn + 1,
			meta:      append([]byte(nil), meta...),
		},
	}
	if n := len(f.free); n > 0 {
		rec.freeHead = f.free[n-1]
	}
	rec.pages = make([]PageID, 0, len(f.staged))
	for id := range f.staged {
		rec.pages = append(rec.pages, id)
	}
	sort.Slice(rec.pages, func(i, j int) bool { return rec.pages[i] < rec.pages[j] })
	rec.images = make([][]byte, len(rec.pages))
	for i, id := range rec.pages {
		rec.images[i] = f.staged[id]
	}

	// 1. WAL append + fsync: the commit point.
	walBuf := f.encodeWALRecord(&rec)
	if _, err := f.wal.WriteAt(walBuf, 0); err != nil {
		return fmt.Errorf("pagefile: WAL write: %w", err)
	}
	if err := f.wal.Sync(); err != nil {
		return fmt.Errorf("pagefile: WAL sync: %w", err)
	}
	f.walBytes.Add(uint64(len(walBuf)))
	f.fsyncs.Add(1)

	// 2. In-place writeback + header + data fsync.  Any failure from here on
	// leaves the WAL intact; the next Open replays it.
	for i, id := range rec.pages {
		if _, err := f.data.WriteAt(rec.images[i], f.pageOffset(id)); err != nil {
			return fmt.Errorf("pagefile: writeback page %d: %w", id, err)
		}
	}
	if err := f.writeHeader(&rec.header); err != nil {
		return err
	}
	if err := f.data.Sync(); err != nil {
		return fmt.Errorf("pagefile: data sync: %w", err)
	}
	f.fsyncs.Add(1)

	// 3. Checkpoint: drop the consumed WAL.  Leaving it in place would be
	// harmless (replay is idempotent and LSN-guarded), so the truncate is
	// not fsynced.
	if err := f.wal.Truncate(0); err != nil {
		return fmt.Errorf("pagefile: WAL truncate: %w", err)
	}

	f.lsn = rec.lsn
	f.committed = f.nPages
	f.meta = rec.meta
	f.staged = map[PageID][]byte{}
	f.commits.Add(1)
	return nil
}

func (f *diskFile) Meta() []byte {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.meta == nil {
		return nil
	}
	return append([]byte(nil), f.meta...)
}

func (f *diskFile) Stats() Stats { return f.counters.snapshot() }

func (f *diskFile) ResetStats() { f.counters.reset() }

func (f *diskFile) SizeBytes() uint64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.nPages * uint64(f.pageSize)
}

func (f *diskFile) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	var errs []error
	if err := f.data.Close(); err != nil {
		errs = append(errs, err)
	}
	if err := f.wal.Close(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}
