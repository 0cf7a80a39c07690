package vmem

import "testing"

// Twin/diff machinery costs: the raw material of t_index.

func BenchmarkFirstTouchTrap(b *testing.B) {
	s := MustSegment(0, 1<<20, 4096)
	payload := []byte{1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s.ProtectAll()
		b.StartTimer()
		if err := s.Write((i%256)*4096, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnprotectedWrite(b *testing.B) {
	s := MustSegment(0, 1<<20, 4096)
	payload := make([]byte, 64)
	b.SetBytes(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Write((i*64)%(1<<20-64), payload); err != nil {
			b.Fatal(err)
		}
	}
}

func benchDiff(b *testing.B, g DiffGranularity, dirtyBytes int) {
	const size = 1 << 20
	s := MustSegment(0, size, 4096)
	s.ProtectAll()
	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = 0xFF
	}
	for off := 0; off < dirtyBytes; off += 4096 {
		if err := s.Write(off, payload); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(s.DirtyPages()) * 4096))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := s.Diff(g); len(d) == 0 {
			b.Fatal("no diffs")
		}
	}
}

func BenchmarkDiffByteSparse(b *testing.B) { benchDiff(b, DiffByte, 64*1024) }
func BenchmarkDiffByteDense(b *testing.B)  { benchDiff(b, DiffByte, 1<<20) }

func BenchmarkProtectAll(b *testing.B) {
	s := MustSegment(0, 1<<22, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ProtectAll()
	}
}
