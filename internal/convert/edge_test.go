package convert

import (
	"math"
	"testing"

	"hetdsm/internal/platform"
)

// Cross-endian platform pairs at each word model: little→big and big→little
// for ILP32 and LP64, plus the model-crossing pairs that exercise widening
// and narrowing. Every edge case below runs on all of them.
var edgePairs = [][2]*platform.Platform{
	{platform.LinuxX86, platform.SolarisSPARC},     // LE→BE, ILP32
	{platform.SolarisSPARC, platform.LinuxX86},     // BE→LE, ILP32
	{platform.LinuxX8664, platform.SolarisSPARC64}, // LE→BE, LP64
	{platform.SolarisSPARC64, platform.LinuxX8664}, // BE→LE, LP64
	{platform.LinuxX86, platform.SolarisSPARC64},   // LE ILP32 → BE LP64 (widening)
	{platform.SolarisSPARC64, platform.LinuxX86},   // BE LP64 → LE ILP32 (narrowing)
}

// convertOne pushes a single encoded value of ct through ScalarRun.
func convertOne(t *testing.T, src *platform.Platform, dst *platform.Platform, ct platform.CType, raw []byte) []byte {
	t.Helper()
	out, st, err := ScalarRun(nil, dst, raw, src, ct, 1, Options{})
	if err != nil {
		t.Fatalf("%s -> %s %v: %v", src, dst, ct, err)
	}
	if st.Elements != 1 || len(out) != dst.CSizeOf(ct) {
		t.Fatalf("%s -> %s %v: stats %+v, %d bytes out", src, dst, ct, st, len(out))
	}
	return out
}

// encInt encodes v as ct on p.
func encInt(p *platform.Platform, ct platform.CType, v int64) []byte {
	b := make([]byte, p.CSizeOf(ct))
	p.PutInt(b, len(b), v)
	return b
}

// TestIntegerEdgeCases covers the signed integer tag classes — char,
// short, int, long, long long — with the values that break naive copying:
// sign extension on widening, two's-complement truncation on narrowing,
// and full-width extremes, across both endiannesses.
func TestIntegerEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		ct   platform.CType
		in   int64
		// want maps the destination element size to the expected decoded
		// value; sizes absent from the map expect the input unchanged.
		want map[int]int64
	}{
		{name: "char minus one", ct: platform.CChar, in: -1},
		{name: "char min", ct: platform.CChar, in: -128},
		{name: "short min", ct: platform.CShort, in: -32768},
		{name: "short sign bit vs byte swap", ct: platform.CShort, in: -0x0102},
		{name: "int minus one", ct: platform.CInt, in: -1},
		{name: "int min", ct: platform.CInt, in: math.MinInt32},
		{name: "int max", ct: platform.CInt, in: math.MaxInt32},
		{name: "long minus one extends", ct: platform.CLong, in: -1},
		{name: "long int32 min survives width change", ct: platform.CLong, in: math.MinInt32},
		{
			// A 64-bit long narrowing to a 32-bit long keeps the low 32
			// bits, sign-extended — C's truncation semantics.
			name: "long truncation overflow",
			ct:   platform.CLong,
			in:   math.MaxInt32 + 1,
			want: map[int]int64{4: math.MinInt32, 8: math.MaxInt32 + 1},
		},
		{
			name: "long full-width pattern",
			ct:   platform.CLong,
			in:   -0x0102030405060708,
			want: map[int]int64{4: -0x05060708, 8: -0x0102030405060708},
		},
		{name: "long long min", ct: platform.CLongLong, in: math.MinInt64},
		{name: "long long max", ct: platform.CLongLong, in: math.MaxInt64},
	}
	for _, tc := range cases {
		for _, pair := range edgePairs {
			src, dst := pair[0], pair[1]
			out := convertOne(t, src, dst, tc.ct, encInt(src, tc.ct, tc.in))
			// The value passes through the narrower of the two widths:
			// encoding truncates on an ILP32 source, conversion truncates
			// into an ILP32 destination.
			narrow := src.CSizeOf(tc.ct)
			if len(out) < narrow {
				narrow = len(out)
			}
			want := tc.in
			if w, ok := tc.want[narrow]; ok {
				want = w
			}
			if got := dst.Int(out, len(out)); got != want {
				t.Errorf("%s: %s -> %s: got %d, want %d", tc.name, src, dst, got, want)
			}
		}
	}
}

// TestUnsignedEdgeCases covers the unsigned classes: zero extension on
// widening (no sign smear) and modular truncation on narrowing.
func TestUnsignedEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		ct   platform.CType
		in   uint64
		want map[int]uint64
	}{
		{name: "uint max", ct: platform.CUInt, in: math.MaxUint32},
		{name: "uint high bit is not a sign", ct: platform.CUInt, in: 0x80000001},
		{
			name: "ulong wide value truncates modulo 2^32",
			ct:   platform.CULong,
			in:   0x1_0000_0003,
			want: map[int]uint64{4: 3, 8: 0x1_0000_0003},
		},
		{name: "ulong max low word", ct: platform.CULong, in: 0xffff_ffff},
	}
	for _, tc := range cases {
		for _, pair := range edgePairs {
			src, dst := pair[0], pair[1]
			raw := make([]byte, src.CSizeOf(tc.ct))
			src.PutUint(raw, len(raw), tc.in)
			out := convertOne(t, src, dst, tc.ct, raw)
			narrow := len(raw)
			if len(out) < narrow {
				narrow = len(out)
			}
			want := tc.in
			if w, ok := tc.want[narrow]; ok {
				want = w
			}
			if got := dst.Uint(out, len(out)); got != want {
				t.Errorf("%s: %s -> %s: got %#x, want %#x", tc.name, src, dst, got, want)
			}
		}
	}
}

// TestFloatEdgeCases covers the float and double classes: NaN payloads,
// signed zero, infinities, and subnormals across both endiannesses. Same
// width must be bit-exact (endianness swap only); float→double widening is
// always exact; the reverse direction is not exercised here because CGT-RMR
// never narrows floats (the logical type fixes the width).
func TestFloatEdgeCases(t *testing.T) {
	f64 := []struct {
		name string
		bits uint64
	}{
		{"quiet NaN with payload", 0x7ff8_0000_0000_babe},
		{"signaling NaN pattern", 0x7ff0_0000_0000_0001},
		{"negative NaN", 0xfff8_0000_dead_0000},
		{"+Inf", math.Float64bits(math.Inf(1))},
		{"-Inf", math.Float64bits(math.Inf(-1))},
		{"negative zero", math.Float64bits(math.Copysign(0, -1))},
		{"smallest subnormal", 1},
		{"largest subnormal", 0x000f_ffff_ffff_ffff},
		{"max finite", math.Float64bits(math.MaxFloat64)},
	}
	for _, tc := range f64 {
		for _, pair := range edgePairs {
			src, dst := pair[0], pair[1]
			raw := make([]byte, 8)
			src.PutFloat64(raw, math.Float64frombits(tc.bits))
			out := convertOne(t, src, dst, platform.CDouble, raw)
			if got := math.Float64bits(dst.Float64(out)); got != tc.bits {
				t.Errorf("double %s: %s -> %s: bits %#x, want %#x", tc.name, src, dst, got, tc.bits)
			}
		}
	}

	f32 := []struct {
		name string
		bits uint32
	}{
		{"quiet NaN with payload", 0x7fc0_beef},
		{"signaling NaN pattern", 0x7f80_0001},
		{"+Inf", math.Float32bits(float32(math.Inf(1)))},
		{"-Inf", math.Float32bits(float32(math.Inf(-1)))},
		{"negative zero", 0x8000_0000},
		{"smallest subnormal", 1},
		{"largest subnormal", 0x007f_ffff},
	}
	for _, tc := range f32 {
		for _, pair := range edgePairs {
			src, dst := pair[0], pair[1]
			raw := make([]byte, 4)
			src.PutFloat32(raw, math.Float32frombits(tc.bits))
			out := convertOne(t, src, dst, platform.CFloat, raw)
			if got := math.Float32bits(dst.Float32(out)); got != tc.bits {
				t.Errorf("float %s: %s -> %s: bits %#x, want %#x", tc.name, src, dst, got, tc.bits)
			}
		}
	}
}

// TestPointerEdgeCases covers the pointer class. Raw mode transfers bits
// (zero-extending 4→8, truncating 8→4); annul mode zeroes; a translated
// pointer that misses every shared object is annulled too.
func TestPointerEdgeCases(t *testing.T) {
	for _, pair := range edgePairs {
		src, dst := pair[0], pair[1]
		raw := make([]byte, src.PtrSize())
		src.PutUint(raw, len(raw), 0x4005_8000)

		out, _, err := ScalarRun(nil, dst, raw, src, platform.CPtr, 1, Options{Ptr: PtrRaw})
		if err != nil {
			t.Fatalf("raw %s -> %s: %v", src, dst, err)
		}
		if got := dst.Uint(out, len(out)); got != 0x4005_8000 {
			t.Errorf("raw %s -> %s: %#x, want 0x40058000", src, dst, got)
		}

		out, _, err = ScalarRun(nil, dst, raw, src, platform.CPtr, 1, Options{Ptr: PtrAnnul})
		if err != nil {
			t.Fatalf("annul %s -> %s: %v", src, dst, err)
		}
		if got := dst.Uint(out, len(out)); got != 0 {
			t.Errorf("annul %s -> %s: %#x, want 0", src, dst, got)
		}
	}

	// Truncating a 64-bit pointer keeps the low word — garbage, which is
	// exactly why the DSD defaults to PtrAnnul for raw pointer payloads.
	src, dst := platform.SolarisSPARC64, platform.LinuxX86
	raw := make([]byte, 8)
	src.PutUint(raw, 8, 0xffff_8000_4005_8000)
	out, _, err := ScalarRun(nil, dst, raw, src, platform.CPtr, 1, Options{Ptr: PtrRaw})
	if err != nil {
		t.Fatal(err)
	}
	if got := dst.Uint(out, 4); got != 0x4005_8000 {
		t.Errorf("narrowed raw pointer: %#x, want 0x40058000", got)
	}
}
