package pagefile

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// fileImage is a full logical snapshot of a committed file: every page plus
// the application meta.  Crash-point tests compare recovered files against
// these images byte for byte.
type fileImage struct {
	pages [][]byte
	meta  []byte
	free  int
}

func snapshotFile(t *testing.T, f File) *fileImage {
	t.Helper()
	img := &fileImage{meta: f.Meta(), free: f.FreePages()}
	buf := make([]byte, f.PageSize())
	for id := uint64(0); id < f.NumPages(); id++ {
		if err := f.Read(PageID(id), buf); err != nil {
			t.Fatalf("snapshot read page %d: %v", id, err)
		}
		img.pages = append(img.pages, append([]byte(nil), buf...))
	}
	return img
}

func (img *fileImage) equal(other *fileImage) bool {
	if len(img.pages) != len(other.pages) || !bytes.Equal(img.meta, other.meta) || img.free != other.free {
		return false
	}
	for i := range img.pages {
		if !bytes.Equal(img.pages[i], other.pages[i]) {
			return false
		}
	}
	return true
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	in, err := os.Open(src)
	if errors.Is(err, os.ErrNotExist) {
		os.Remove(dst)
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if _, err := io.Copy(out, in); err != nil {
		t.Fatal(err)
	}
}

// cloneDB copies a data file and its WAL sidecar into a fresh working path.
func cloneDB(t *testing.T, src, dst string) {
	t.Helper()
	copyFile(t, src, dst)
	copyFile(t, WALPath(src), WALPath(dst))
}

// commitScenario is the mutation batch whose crash behaviour the matrix
// explores: rewrite one committed page, allocate a new one, and free
// another — exercising in-place writeback, growth and the free chain in a
// single commit.
func commitScenario(f File) error {
	page := make([]byte, f.PageSize())
	for i := range page {
		page[i] = 0xC4
	}
	if err := f.Write(1, page); err != nil {
		return err
	}
	id, err := f.Allocate()
	if err != nil {
		return err
	}
	for i := range page {
		page[i] = 0xD5
	}
	if err := f.Write(id, page); err != nil {
		return err
	}
	if err := f.Free(2); err != nil {
		return err
	}
	return f.Commit([]byte("after"))
}

// TestCrashPointMatrixFile drives the commit protocol into a deterministic
// fault at every write and fsync site (plain failures and torn writes),
// reopens without faults, and asserts the recovered file is byte-identical
// to either the pre-commit or the post-commit committed image — never a
// hybrid.  A fault injected before the WAL fsync completes must recover the
// pre state; a successful Commit must recover the post state.
func TestCrashPointMatrixFile(t *testing.T) {
	dir := t.TempDir()
	template := filepath.Join(dir, "template.svrdb")

	// Build the committed pre state: four pages with distinct fill bytes.
	f, err := Open(template, WithPageSize(512))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.AllocateN(4); err != nil {
		t.Fatal(err)
	}
	page := make([]byte, 512)
	for id := PageID(0); id < 4; id++ {
		for i := range page {
			page[i] = 0xA0 + byte(id)
		}
		if err := f.Write(id, page); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Commit([]byte("before")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Pre image, and post image from one clean run of the scenario.
	pre := func() *fileImage {
		f, err := Open(template)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		return snapshotFile(t, f)
	}()
	postPath := filepath.Join(dir, "post.svrdb")
	cloneDB(t, template, postPath)
	post := func() *fileImage {
		f, err := Open(postPath)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := commitScenario(f); err != nil {
			t.Fatal(err)
		}
		return snapshotFile(t, f)
	}()
	if pre.equal(post) {
		t.Fatal("scenario did not change the file; the matrix would prove nothing")
	}

	// Counting run: learn how many write and sync sites the scenario has.
	countPath := filepath.Join(dir, "count.svrdb")
	cloneDB(t, template, countPath)
	counter := NewFaultInjector(FaultPlan{})
	cf, err := Open(countPath, WithFaults(counter))
	if err != nil {
		t.Fatal(err)
	}
	if err := commitScenario(cf); err != nil {
		t.Fatal(err)
	}
	cf.Close()
	writes, syncs := counter.Writes(), counter.Syncs()
	if writes < 3 || syncs < 2 {
		t.Fatalf("scenario has %d writes and %d syncs; too few for a meaningful matrix", writes, syncs)
	}

	type site struct {
		plan FaultPlan
		name string
	}
	var sites []site
	for i := 1; i <= writes; i++ {
		sites = append(sites,
			site{FaultPlan{FailWrite: i}, fmt.Sprintf("write-%d", i)},
			site{FaultPlan{FailWrite: i, TornWrite: true}, fmt.Sprintf("torn-write-%d", i)})
	}
	for i := 1; i <= syncs; i++ {
		sites = append(sites, site{FaultPlan{FailSync: i}, fmt.Sprintf("sync-%d", i)})
	}

	for _, s := range sites {
		t.Run(s.name, func(t *testing.T) {
			work := filepath.Join(dir, "work.svrdb")
			cloneDB(t, template, work)
			fi := NewFaultInjector(s.plan)
			f, err := Open(work, WithFaults(fi))
			if err != nil {
				t.Fatalf("open with faults failed before the scenario ran: %v", err)
			}
			commitErr := commitScenario(f)
			f.Close()
			if !fi.Tripped() {
				t.Fatalf("fault site %s never fired", s.name)
			}

			// The crash happened; reopen without faults and recover.
			rf, err := Open(work)
			if err != nil {
				t.Fatalf("recovery open: %v", err)
			}
			defer rf.Close()
			img := snapshotFile(t, rf)
			switch {
			case img.equal(pre):
				if commitErr == nil {
					t.Error("Commit reported success but recovery landed on the pre state")
				}
			case img.equal(post):
				// Roll-forward of a fully-logged commit: fine whether or not
				// Commit got to report success.
			default:
				t.Errorf("recovered state is neither the pre- nor the post-commit image (commit err: %v)", commitErr)
			}

			// The recovered file must accept and persist a fresh commit.
			if err := commitScenario(rf); err != nil {
				t.Fatalf("commit after recovery: %v", err)
			}
		})
	}
}

// TestFreeListSurvivesReopen pins the satellite requirement: pages freed
// before a commit survive close/reopen through the persisted free chain, are
// handed back in the same LIFO order, and arrive zeroed.
func TestFreeListSurvivesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.svrdb")
	f, err := Open(path, WithPageSize(512))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.AllocateN(5); err != nil {
		t.Fatal(err)
	}
	junk := bytes.Repeat([]byte{0xEE}, 512)
	for id := PageID(0); id < 5; id++ {
		if err := f.Write(id, junk); err != nil {
			t.Fatal(err)
		}
	}
	// Free 1 then 3: LIFO means the next allocations hand back 3 then 1.
	if err := f.Free(1); err != nil {
		t.Fatal(err)
	}
	if err := f.Free(3); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	rf, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	if got := rf.FreePages(); got != 2 {
		t.Fatalf("FreePages after reopen = %d, want 2", got)
	}
	if got := rf.NumPages(); got != 5 {
		t.Fatalf("NumPages after reopen = %d, want 5", got)
	}
	zero := make([]byte, 512)
	buf := make([]byte, 512)
	for _, want := range []PageID{3, 1} {
		id, err := rf.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if id != want {
			t.Errorf("Allocate after reopen = page %d, want recycled page %d", id, want)
		}
		if err := rf.Read(id, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, zero) {
			t.Errorf("recycled page %d not zeroed after reopen", id)
		}
	}
	if rf.NumPages() != 5 {
		t.Errorf("NumPages grew to %d despite recycled allocations", rf.NumPages())
	}
	st := rf.Stats()
	if st.Reuses != 2 {
		t.Errorf("Stats.Reuses = %d, want 2", st.Reuses)
	}
}

// TestRecoveryCountsTornWAL pins that a torn WAL tail is detected, counted
// and discarded rather than replayed.
func TestRecoveryCountsTornWAL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.svrdb")
	f, err := Open(path, WithPageSize(512))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Allocate(); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit([]byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Plant a torn record: valid magic, then garbage cut short.
	wal, err := os.OpenFile(WALPath(path), os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := make([]byte, 60)
	copy(torn, []byte{0x31, 0x30, 0x4c, 0x41, 0x57, 0x52, 0x56, 0x53}) // walMagic little-endian
	if _, err := wal.WriteAt(torn, 0); err != nil {
		t.Fatal(err)
	}
	wal.Close()

	rf, err := Open(path)
	if err != nil {
		t.Fatalf("open with torn WAL: %v", err)
	}
	defer rf.Close()
	if got := rf.Meta(); !bytes.Equal(got, []byte("v1")) {
		t.Errorf("meta after torn-WAL recovery = %q, want %q", got, "v1")
	}
	if st := rf.Stats(); st.TornPages == 0 {
		t.Error("TornPages counter not bumped by torn WAL tail")
	}
}

// TestWALRecordTrimsTrailingZeros pins the sparse image encoding: a record
// stores each page image without its trailing zeros, decodes back to the
// full zero-filled images, and rejects every cut of itself.
func TestWALRecordTrimsTrailingZeros(t *testing.T) {
	const pageSize = 512
	f := &diskFile{pageSize: pageSize}
	full := bytes.Repeat([]byte{0xA5}, pageSize)
	half := make([]byte, pageSize)
	copy(half, full[:200])
	half[100] = 0 // an interior zero is kept
	link := make([]byte, pageSize)
	copy(link, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	rec := &walRecord{
		header: header{pageSize: pageSize, nPages: 9, freeHead: 4, freeCount: 1, lsn: 7, meta: []byte("root")},
		pages:  []PageID{2, 3, 4, 5},
		images: [][]byte{full, half, link, make([]byte, pageSize)},
	}
	buf := f.encodeWALRecord(rec)
	if want := 52 + 4 + 4*12 + pageSize + 200 + 16 + 0 + 4; len(buf) != want {
		t.Fatalf("record is %d bytes, want %d", len(buf), want)
	}
	got, n, err := decodeWALRecord(buf, pageSize)
	if err != nil || n != len(buf) {
		t.Fatalf("decode: n=%d err=%v", n, err)
	}
	if got.lsn != 7 || got.nPages != 9 || got.freeHead != 4 || !bytes.Equal(got.meta, []byte("root")) {
		t.Errorf("decoded header = %+v", got.header)
	}
	for i, img := range rec.images {
		if got.pages[i] != rec.pages[i] || !bytes.Equal(got.images[i], img) {
			t.Errorf("image %d (page %d) does not round-trip", i, rec.pages[i])
		}
	}
	for cut := 1; cut < len(buf); cut++ {
		if rec, _, err := decodeWALRecord(buf[:cut], pageSize); err == nil || rec != nil {
			t.Fatalf("record cut to %d of %d bytes decoded", cut, len(buf))
		}
	}
}
