package platform

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestBuiltinPlatformProperties(t *testing.T) {
	cases := []struct {
		p       *Platform
		order   Endianness
		model   Model
		page    int
		ptrSize int
	}{
		{LinuxX86, Little, ILP32, 4096, 4},
		{SolarisSPARC, Big, ILP32, 8192, 4},
		{LinuxX8664, Little, LP64, 4096, 8},
		{SolarisSPARC64, Big, LP64, 8192, 8},
	}
	for _, c := range cases {
		if c.p.Order != c.order {
			t.Errorf("%s: order = %v, want %v", c.p, c.p.Order, c.order)
		}
		if c.p.Model != c.model {
			t.Errorf("%s: model = %v, want %v", c.p, c.p.Model, c.model)
		}
		if c.p.PageSize != c.page {
			t.Errorf("%s: page = %d, want %d", c.p, c.p.PageSize, c.page)
		}
		if c.p.PtrSize() != c.ptrSize {
			t.Errorf("%s: ptr size = %d, want %d", c.p, c.p.PtrSize(), c.ptrSize)
		}
	}
}

func TestKindSizes(t *testing.T) {
	for _, p := range All() {
		wants := map[Kind]int{
			Int8: 1, Uint8: 1, Int16: 2, Uint16: 2,
			Int32: 4, Uint32: 4, Int64: 8, Uint64: 8,
			Float32: 4, Float64: 8,
		}
		for k, w := range wants {
			if got := p.SizeOf(k); got != w {
				t.Errorf("%s: SizeOf(%v) = %d, want %d", p, k, got, w)
			}
			if got := p.AlignOf(k); got != w {
				t.Errorf("%s: AlignOf(%v) = %d, want %d", p, k, got, w)
			}
		}
	}
}

func TestCTypeMapping(t *testing.T) {
	// The paper's two machines are both ILP32: int, long and pointers are
	// all 4 bytes; the pair differs only in byte order and page size.
	for _, p := range []*Platform{LinuxX86, SolarisSPARC} {
		if p.CSizeOf(CInt) != 4 || p.CSizeOf(CLong) != 4 || p.CSizeOf(CPtr) != 4 {
			t.Errorf("%s: ILP32 sizes wrong: int=%d long=%d ptr=%d",
				p, p.CSizeOf(CInt), p.CSizeOf(CLong), p.CSizeOf(CPtr))
		}
	}
	for _, p := range []*Platform{LinuxX8664, SolarisSPARC64} {
		if p.CSizeOf(CInt) != 4 || p.CSizeOf(CLong) != 8 || p.CSizeOf(CPtr) != 8 {
			t.Errorf("%s: LP64 sizes wrong: int=%d long=%d ptr=%d",
				p, p.CSizeOf(CInt), p.CSizeOf(CLong), p.CSizeOf(CPtr))
		}
	}
	if LinuxX86.Kind(CChar) != Int8 {
		t.Errorf("linux char should be signed, got %v", LinuxX86.Kind(CChar))
	}
}

func TestSameABI(t *testing.T) {
	if !LinuxX86.SameABI(LinuxX86) {
		t.Error("LinuxX86 must share ABI with itself")
	}
	if LinuxX86.SameABI(SolarisSPARC) {
		t.Error("LinuxX86 and SolarisSPARC must differ (endianness)")
	}
	if LinuxX86.SameABI(LinuxX8664) {
		t.Error("ILP32 and LP64 must differ")
	}
	// Same ABI with different page size: construct a Linux-like platform
	// with Solaris pages; data layout is identical so ABI matches.
	bigPage := New("linux-x86-8k", "L", Little, ILP32, 8192, true)
	if !LinuxX86.SameABI(bigPage) {
		t.Error("page size must not affect ABI compatibility")
	}
}

func TestNewRejectsBadPageSize(t *testing.T) {
	for _, bad := range []int{0, -4096, 3000, 4097} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New with page size %d did not panic", bad)
				}
			}()
			New("bad", "B", Little, ILP32, bad, true)
		}()
	}
}

func TestByName(t *testing.T) {
	for _, p := range All() {
		if got := ByName(p.Name); got != p {
			t.Errorf("ByName(%q) = %v, want %v", p.Name, got, p)
		}
	}
	if ByName("vax") != nil {
		t.Error("ByName(vax) should be nil")
	}
}

func TestUintRoundTrip(t *testing.T) {
	buf := make([]byte, 8)
	for _, p := range All() {
		for _, size := range []int{1, 2, 4, 8} {
			mask := ^uint64(0)
			if size < 8 {
				mask = 1<<(uint(size)*8) - 1
			}
			for _, v := range []uint64{0, 1, 0x7f, 0x80, 0xff, 0xdeadbeef, math.MaxUint64} {
				p.PutUint(buf, size, v)
				if got := p.Uint(buf, size); got != v&mask {
					t.Errorf("%s size %d: Uint(PutUint(%#x)) = %#x, want %#x",
						p, size, v, got, v&mask)
				}
			}
		}
	}
}

func TestIntSignExtension(t *testing.T) {
	buf := make([]byte, 8)
	for _, p := range All() {
		for _, c := range []struct {
			size int
			v    int64
		}{
			{1, -1}, {1, -128}, {1, 127},
			{2, -32768}, {2, 32767}, {2, -1},
			{4, -2147483648}, {4, 2147483647}, {4, -1},
			{8, math.MinInt64}, {8, math.MaxInt64}, {8, -1},
		} {
			p.PutInt(buf, c.size, c.v)
			if got := p.Int(buf, c.size); got != c.v {
				t.Errorf("%s: Int%d round trip of %d gave %d", p, c.size*8, c.v, got)
			}
		}
	}
}

func TestEndiannessIsVisibleInBytes(t *testing.T) {
	b := make([]byte, 4)
	LinuxX86.PutUint(b, 4, 0x01020304)
	if b[0] != 0x04 || b[3] != 0x01 {
		t.Errorf("little-endian bytes wrong: % x", b)
	}
	SolarisSPARC.PutUint(b, 4, 0x01020304)
	if b[0] != 0x01 || b[3] != 0x04 {
		t.Errorf("big-endian bytes wrong: % x", b)
	}
}

func TestFloatRoundTrip(t *testing.T) {
	buf := make([]byte, 8)
	for _, p := range All() {
		for _, v := range []float64{0, 1.5, -2.25, math.Pi, math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64} {
			p.PutFloat64(buf, v)
			if got := p.Float64(buf); got != v {
				t.Errorf("%s: Float64 round trip of %g gave %g", p, v, got)
			}
		}
		for _, v := range []float32{0, 1.5, -2.25, math.MaxFloat32} {
			p.PutFloat32(buf, v)
			if got := p.Float32(buf); got != v {
				t.Errorf("%s: Float32 round trip of %g gave %g", p, v, got)
			}
		}
	}
}

func TestFloatNaN(t *testing.T) {
	buf := make([]byte, 8)
	for _, p := range All() {
		p.PutFloat64(buf, math.NaN())
		if !math.IsNaN(p.Float64(buf)) {
			t.Errorf("%s: NaN did not survive the round trip", p)
		}
	}
}

func TestScalarGeneric(t *testing.T) {
	buf := make([]byte, 8)
	p := SolarisSPARC
	p.PutScalar(buf, Int32, int64(-7))
	if got := p.Scalar(buf, Int32); got.(int64) != -7 {
		t.Errorf("Scalar(Int32) = %v, want -7", got)
	}
	p.PutScalar(buf, Uint16, uint64(65535))
	if got := p.Scalar(buf, Uint16); got.(uint64) != 65535 {
		t.Errorf("Scalar(Uint16) = %v, want 65535", got)
	}
	p.PutScalar(buf, Float64, 3.75)
	if got := p.Scalar(buf, Float64); got.(float64) != 3.75 {
		t.Errorf("Scalar(Float64) = %v, want 3.75", got)
	}
	p.PutScalar(buf, Float32, float32(0.5))
	if got := p.Scalar(buf, Float32); got.(float32) != 0.5 {
		t.Errorf("Scalar(Float32) = %v, want 0.5", got)
	}
}

// Property: for every platform and every 4-byte value, cross-platform byte
// images of the same value differ between LE and BE platforms exactly by
// byte reversal.
func TestQuickEndianSwapProperty(t *testing.T) {
	f := func(v uint32) bool {
		le := make([]byte, 4)
		be := make([]byte, 4)
		LinuxX86.PutUint(le, 4, uint64(v))
		SolarisSPARC.PutUint(be, 4, uint64(v))
		for i := 0; i < 4; i++ {
			if le[i] != be[3-i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Int/PutInt round-trips any int32 on every platform at size 4.
func TestQuickIntRoundTrip(t *testing.T) {
	for _, p := range All() {
		p := p
		f := func(v int32) bool {
			b := make([]byte, 4)
			p.PutInt(b, 4, int64(v))
			return p.Int(b, 4) == int64(v)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
}

// Property: Float64 bit patterns are preserved exactly across a round trip
// (including NaN payloads), on every platform.
func TestQuickFloat64BitsRoundTrip(t *testing.T) {
	for _, p := range All() {
		p := p
		f := func(bits uint64) bool {
			b := make([]byte, 8)
			p.PutFloat64(b, math.Float64frombits(bits))
			return math.Float64bits(p.Float64(b)) == bits
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
}

// TestBulkPutsMatchScalarPuts: PutInts and PutFloat64s are PutInt and
// PutFloat64 over a run, on both byte orders and every width.
func TestBulkPutsMatchScalarPuts(t *testing.T) {
	ints := []int64{0, 1, -1, 0x7f, -0x80, 0x1234_5678, -0x1234_5678_9abc, math.MaxInt64, math.MinInt64}
	floats := []float64{0, -0.0, 1.5, math.Inf(-1), math.NaN(), math.SmallestNonzeroFloat64}
	for _, p := range All() {
		for _, size := range []int{1, 2, 4, 8} {
			got := make([]byte, size*len(ints))
			want := make([]byte, len(got))
			p.PutInts(got, size, ints)
			for i, x := range ints {
				p.PutInt(want[size*i:], size, x)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s PutInts size %d = %x, want %x", p, size, got, want)
			}
		}
		got := make([]byte, 8*len(floats))
		want := make([]byte, len(got))
		p.PutFloat64s(got, floats)
		for i, x := range floats {
			p.PutFloat64(want[8*i:], x)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s PutFloat64s = %x, want %x", p, got, want)
		}
	}
}
