package vmem

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func seg(t *testing.T, size, page int) *Segment {
	t.Helper()
	s, err := NewSegment(0x40058000, size, page)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSegmentValidation(t *testing.T) {
	if _, err := NewSegment(0x1000, 100, 3000); err == nil {
		t.Error("non-power-of-two page size must fail")
	}
	if _, err := NewSegment(0x1000, 0, 4096); err == nil {
		t.Error("zero size must fail")
	}
	if _, err := NewSegment(0x1001, 100, 4096); err == nil {
		t.Error("unaligned base must fail")
	}
	s, err := NewSegment(0x2000, 100, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 4096 || s.Pages() != 1 {
		t.Errorf("size rounded to %d pages %d, want 4096/1", s.Size(), s.Pages())
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	s := seg(t, 10000, 4096)
	data := []byte("hello, dsm")
	if err := s.Write(5000, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	got, err := s.Read(5000, len(data), buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("read back %q, want %q", got, data)
	}
}

func TestBoundsChecks(t *testing.T) {
	s := seg(t, 4096, 4096)
	if err := s.Write(4090, make([]byte, 10)); err == nil {
		t.Error("overflowing write must fail")
	}
	if err := s.Write(-1, []byte{0}); err == nil {
		t.Error("negative offset must fail")
	}
	if _, err := s.Read(4096, 1, make([]byte, 1)); err == nil {
		t.Error("read past end must fail")
	}
	if _, err := s.View(0, 4097); err == nil {
		t.Error("view past end must fail")
	}
}

func TestAddrOffset(t *testing.T) {
	s := seg(t, 8192, 4096)
	if got := s.Addr(100); got != 0x40058064 {
		t.Errorf("Addr(100) = %#x", got)
	}
	off, err := s.Offset(0x40058064)
	if err != nil || off != 100 {
		t.Errorf("Offset = %d, %v", off, err)
	}
	if _, err := s.Offset(0x40057FFF); err == nil {
		t.Error("address below base must fail")
	}
	if _, err := s.Offset(s.Base() + uint64(s.Size())); err == nil {
		t.Error("address at end must fail")
	}
}

func TestFirstTouchFaultSemantics(t *testing.T) {
	s := seg(t, 3*4096, 4096)
	s.ProtectAll()
	var trapped []int
	s.OnFault(func(p int) { trapped = append(trapped, p) })

	// First write to page 1 traps once.
	if err := s.Write(4096+10, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if len(trapped) != 1 || trapped[0] != 1 {
		t.Fatalf("trapped = %v, want [1]", trapped)
	}
	// Second write to the same page must NOT trap again — the paper's
	// "subsequent writes ... will not trigger a segmentation fault".
	if err := s.Write(4096+500, []byte{4}); err != nil {
		t.Fatal(err)
	}
	if len(trapped) != 1 {
		t.Fatalf("second write re-trapped: %v", trapped)
	}
	if s.Faults() != 1 {
		t.Errorf("fault count = %d, want 1", s.Faults())
	}
	// A write spanning a page boundary traps each protected page it
	// touches.
	if err := s.Write(2*4096-2, []byte{9, 9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	if len(trapped) != 2 || trapped[1] != 2 {
		t.Fatalf("span write trapped %v, want pages 1 then 2", trapped)
	}
}

// TestEmptyWriteTrapsNothing pins a bug: an empty store computed its last
// page as (off-1)/pageSize, truncated to the first page, and so trapped
// and twinned a page it never wrote.
func TestEmptyWriteTrapsNothing(t *testing.T) {
	s := seg(t, 2*4096, 4096)
	s.ProtectAll()
	if err := s.Write(10, nil); err != nil {
		t.Fatal(err)
	}
	if v, err := s.WriteView(4096, 0); err != nil || len(v) != 0 {
		t.Fatalf("WriteView(4096, 0) = %d bytes, %v", len(v), err)
	}
	if s.Faults() != 0 || len(s.DirtyPages()) != 0 || s.TwinBytes() != 0 {
		t.Errorf("empty writes took %d faults, dirtied %v, twinned %d bytes", s.Faults(), s.DirtyPages(), s.TwinBytes())
	}
	if !s.Protected(0) || !s.Protected(1) {
		t.Error("empty writes unprotected a page")
	}
	if err := s.Write(2*4096+1, nil); err == nil {
		t.Error("an empty write past the end must still fail the bounds check")
	}
}

// TestWriteViewStoresInPlace: a store through WriteView traps like Write
// and lands in the segment.
func TestWriteViewStoresInPlace(t *testing.T) {
	s := seg(t, 2*4096, 4096)
	s.ProtectAll()
	v, err := s.WriteView(4094, 4)
	if err != nil {
		t.Fatal(err)
	}
	copy(v, []byte{1, 2, 3, 4})
	if s.Faults() != 2 || !slices.Equal(s.DirtyPages(), []int{0, 1}) {
		t.Fatalf("faults %d, dirty %v; want 2 and [0 1]", s.Faults(), s.DirtyPages())
	}
	if d := s.Diff(DiffByte); len(d) != 1 || d[0] != (Range{Start: 4094, End: 4098}) {
		t.Errorf("diff = %v, want [{4094 4098}]", d)
	}
}

// TestDirtyPagesAscendingAcrossWindows: pages trapped out of order are
// listed in order, and the twin arena is reused window after window
// without a stale twin leaking into the next window's diff.
func TestDirtyPagesAscendingAcrossWindows(t *testing.T) {
	s := seg(t, 8*4096, 4096)
	for w, pages := range [][]int{{5, 1, 7, 3}, {2, 6}, {0}} {
		s.ProtectAll()
		for _, p := range pages {
			if err := s.Write(p*4096+w, []byte{byte(w + 1)}); err != nil {
				t.Fatal(err)
			}
		}
		want := slices.Clone(pages)
		slices.Sort(want)
		if got := s.DirtyPages(); !slices.Equal(got, want) {
			t.Fatalf("window %d: dirty %v, want %v", w, got, want)
		}
		if d := s.Diff(DiffByte); len(d) != len(pages) {
			t.Fatalf("window %d: %d diff ranges, want %d: %v", w, len(d), len(pages), d)
		}
	}
	if got := s.TwinBytes(); got != 4096 {
		t.Errorf("TwinBytes = %d, want one page", got)
	}
}

func TestTwinPreservesOriginal(t *testing.T) {
	s := seg(t, 4096, 4096)
	if err := s.Write(0, []byte{10, 20, 30}); err != nil {
		t.Fatal(err)
	}
	s.ProtectAll()
	if err := s.Write(1, []byte{99}); err != nil {
		t.Fatal(err)
	}
	rs := s.DiffPage(0, DiffByte)
	if len(rs) != 1 || rs[0] != (Range{Start: 1, End: 2}) {
		t.Fatalf("diff = %v, want [{1 2}]", rs)
	}
}

func TestDiffDetectsExactRanges(t *testing.T) {
	s := seg(t, 2*4096, 4096)
	s.ProtectAll()
	// Three writes, two adjacent (coalesce), one separate page.
	writes := []struct {
		off int
		n   int
	}{{100, 8}, {108, 4}, {5000, 16}}
	for _, w := range writes {
		b := make([]byte, w.n)
		for i := range b {
			b[i] = 0xFF
		}
		if err := s.Write(w.off, b); err != nil {
			t.Fatal(err)
		}
	}
	got := s.Diff(DiffByte)
	want := []Range{{100, 112}, {5000, 5016}}
	if len(got) != len(want) {
		t.Fatalf("diff = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("range %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestDiffIgnoresSameValueWrites(t *testing.T) {
	// Writing the value a byte already has produces no diff — twin
	// comparison is value-based, like the paper's.
	s := seg(t, 4096, 4096)
	if err := s.Write(10, []byte{7}); err != nil {
		t.Fatal(err)
	}
	s.ProtectAll()
	if err := s.Write(10, []byte{7}); err != nil {
		t.Fatal(err)
	}
	if d := s.Diff(DiffByte); len(d) != 0 {
		t.Errorf("same-value write produced diff %v", d)
	}
	if s.Faults() != 1 {
		t.Errorf("same-value write must still fault once, got %d", s.Faults())
	}
}

func TestProtectAllResetsDirtyState(t *testing.T) {
	s := seg(t, 4096, 4096)
	s.ProtectAll()
	if err := s.Write(0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if len(s.DirtyPages()) != 1 {
		t.Fatal("page should be dirty")
	}
	s.ProtectAll()
	if len(s.DirtyPages()) != 0 {
		t.Error("ProtectAll must clear twins")
	}
	if !s.Protected(0) {
		t.Error("page must be re-protected")
	}
}

func TestRawWriteBypassesDetection(t *testing.T) {
	s := seg(t, 4096, 4096)
	s.ProtectAll()
	if err := s.RawWrite(0, []byte{42}); err != nil {
		t.Fatal(err)
	}
	if s.Faults() != 0 || len(s.DirtyPages()) != 0 {
		t.Error("RawWrite must not trap or dirty pages")
	}
	b, _ := s.View(0, 1)
	if b[0] != 42 {
		t.Error("RawWrite did not store")
	}
}

func TestDropTwinsKeepsPagesWritable(t *testing.T) {
	s := seg(t, 4096, 4096)
	s.ProtectAll()
	if err := s.Write(0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	s.DropTwins()
	if len(s.DirtyPages()) != 0 {
		t.Error("DropTwins must clear dirty set")
	}
	if s.Protected(0) {
		t.Error("page must remain unprotected after DropTwins")
	}
	before := s.Faults()
	if err := s.Write(1, []byte{2}); err != nil {
		t.Fatal(err)
	}
	if s.Faults() != before {
		t.Error("write after DropTwins must not re-trap")
	}
}

func TestApplyRemoteInvisibleToDiff(t *testing.T) {
	s := seg(t, 2*4096, 4096)
	s.ProtectAll()
	// Local write dirties page 0.
	if err := s.Write(100, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// Remote update lands on the same (twinned) page and on a clean page.
	if err := s.ApplyRemote(200, []byte{9, 9}); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyRemote(5000, []byte{7}); err != nil {
		t.Fatal(err)
	}
	d := s.Diff(DiffByte)
	if len(d) != 1 || d[0] != (Range{Start: 100, End: 103}) {
		t.Errorf("diff = %v, want only the local write", d)
	}
	// The remote data is really there.
	b, _ := s.View(200, 2)
	if b[0] != 9 || b[1] != 9 {
		t.Error("ApplyRemote did not store")
	}
	// And a later local overwrite of the remote bytes diffs against them.
	if err := s.Write(200, []byte{5, 9}); err != nil {
		t.Fatal(err)
	}
	d = s.Diff(DiffByte)
	want := []Range{{100, 103}, {200, 201}}
	if len(d) != 2 || d[0] != want[0] || d[1] != want[1] {
		t.Errorf("diff after overwrite = %v, want %v", d, want)
	}
}

func TestApplyRemoteSpanningPages(t *testing.T) {
	s := seg(t, 2*4096, 4096)
	s.ProtectAll()
	if err := s.Write(3800, []byte{1}); err != nil { // twin page 0
		t.Fatal(err)
	}
	if err := s.Write(4500, []byte{1}); err != nil { // twin page 1
		t.Fatal(err)
	}
	b := make([]byte, 400)
	for i := range b {
		b[i] = 0xCC
	}
	if err := s.ApplyRemote(3900, b); err != nil { // spans both pages
		t.Fatal(err)
	}
	// Only the two local writes diff; the 400 remote bytes (patched into
	// both twins) do not.
	d := s.Diff(DiffByte)
	want := []Range{{3800, 3801}, {4500, 4501}}
	if len(d) != 2 || d[0] != want[0] || d[1] != want[1] {
		t.Errorf("diff = %v, want %v", d, want)
	}
	// The remote bytes really landed on both pages.
	for _, off := range []int{3900, 4095, 4096, 4299} {
		v, _ := s.View(off, 1)
		if v[0] != 0xCC {
			t.Errorf("byte %d = %#x, want 0xCC", off, v[0])
		}
	}
}

func TestTwinBytes(t *testing.T) {
	s := seg(t, 4*4096, 4096)
	s.ProtectAll()
	if err := s.Write(0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(3*4096, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if got := s.TwinBytes(); got != 2*4096 {
		t.Errorf("TwinBytes = %d, want %d", got, 2*4096)
	}
}

func TestSolarisPageSize(t *testing.T) {
	// An 8 KiB-page segment dirties one page where a 4 KiB one would
	// dirty two.
	s8, _ := NewSegment(0x40000000, 16384, 8192)
	s4, _ := NewSegment(0x40000000, 16384, 4096)
	s8.ProtectAll()
	s4.ProtectAll()
	b := make([]byte, 6000)
	if err := s8.Write(0, b); err != nil {
		t.Fatal(err)
	}
	if err := s4.Write(0, b); err != nil {
		t.Fatal(err)
	}
	if s8.Faults() != 1 {
		t.Errorf("8K faults = %d, want 1", s8.Faults())
	}
	if s4.Faults() != 2 {
		t.Errorf("4K faults = %d, want 2", s4.Faults())
	}
}

// Property: applying the diff ranges from a modified segment onto a copy of
// the original reconstructs the modified image (diff/apply is lossless).
func TestQuickDiffApplyReconstructs(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const size = 2 * 4096
		s := MustSegment(0, size, 4096)
		orig := make([]byte, size)
		r.Read(orig)
		if err := s.Write(0, orig); err != nil {
			return false
		}
		s.ProtectAll()
		for i := 0; i < 8; i++ {
			off := r.Intn(size - 100)
			b := make([]byte, 1+r.Intn(99))
			r.Read(b)
			if err := s.Write(off, b); err != nil {
				return false
			}
		}
		// Reconstruct from original + diffs.
		recon := make([]byte, size)
		copy(recon, orig)
		for _, rg := range s.Diff(DiffByte) {
			v, err := s.View(rg.Start, rg.Len())
			if err != nil {
				return false
			}
			copy(recon[rg.Start:rg.End], v)
		}
		cur, err := s.View(0, size)
		if err != nil {
			return false
		}
		return bytes.Equal(recon, cur)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
