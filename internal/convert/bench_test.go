package convert

import (
	"testing"

	"hetdsm/internal/platform"
	"hetdsm/internal/tag"
)

// The raw conversion throughputs underneath Figures 10 and 11: the
// homogeneous memcpy fast path vs. the heterogeneous byte-swap path.

func benchInts(b *testing.B, dst, src *platform.Platform) {
	const n = 256 * 1024 // 1 MiB of ints
	in := make([]byte, 4*n)
	for i := 0; i < n; i++ {
		src.PutInt(in[i*4:], 4, int64(i))
	}
	out := make([]byte, 0, 4*n)
	b.SetBytes(4 * n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		out, _, err = ScalarRun(out[:0], dst, in, src, platform.CInt, n, Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIntRunHomogeneous(b *testing.B) {
	benchInts(b, platform.LinuxX86, platform.LinuxX86)
}

func BenchmarkIntRunByteSwap(b *testing.B) {
	benchInts(b, platform.LinuxX86, platform.SolarisSPARC)
}

func BenchmarkIntRunWiden(b *testing.B) {
	const n = 256 * 1024
	src := platform.SolarisSPARC
	in := make([]byte, 4*n)
	for i := 0; i < n; i++ {
		src.PutInt(in[i*4:], 4, int64(-i))
	}
	out := make([]byte, 0, 8*n)
	b.SetBytes(4 * n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		out, _, err = ScalarRun(out[:0], platform.LinuxX8664, in, src, platform.CLong, n, Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIntRunNarrow(b *testing.B) {
	const n = 128 * 1024 // 1 MiB of LP64 longs
	src := platform.LinuxX8664
	in := make([]byte, 8*n)
	for i := 0; i < n; i++ {
		src.PutInt(in[i*8:], 8, int64(-i))
	}
	out := make([]byte, 0, 4*n)
	b.SetBytes(8 * n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		out, _, err = ScalarRun(out[:0], platform.SolarisSPARC, in, src, platform.CLong, n, Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDoubleRunByteSwap(b *testing.B) {
	const n = 128 * 1024 // 1 MiB of doubles
	src := platform.SolarisSPARC
	in := make([]byte, 8*n)
	for i := 0; i < n; i++ {
		src.PutFloat64(in[i*8:], float64(i)*1.5)
	}
	out := make([]byte, 0, 8*n)
	b.SetBytes(8 * n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		out, _, err = ScalarRun(out[:0], platform.LinuxX86, in, src, platform.CDouble, n, Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkValueStruct(b *testing.B) {
	typ := tag.Struct{Name: "s", Fields: []tag.Field{
		{Name: "a", T: tag.IntArray(1024)},
		{Name: "d", T: tag.DoubleArray(512)},
		{Name: "p", T: tag.Pointer{}},
	}}
	srcL := tag.MustLayout(typ, platform.SolarisSPARC)
	dstL := tag.MustLayout(typ, platform.LinuxX86)
	src := make([]byte, srcL.Size)
	b.SetBytes(int64(srcL.Size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Value(dstL, src, srcL, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
