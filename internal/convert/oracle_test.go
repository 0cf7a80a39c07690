package convert

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"hetdsm/internal/platform"
)

// oracleRun is the per-element converter plans replaced, kept as the
// reference they are fuzzed against: every element is decoded to a 64-bit
// value through the platform descriptors and encoded again. Same-kind
// floats go through their integer bits, so NaN payloads (signalling ones
// included) survive bit-exact; only a float width change would go through
// float64.
func oracleRun(dstP *platform.Platform, src []byte, srcP *platform.Platform, ct platform.CType, count int, opt Options) ([]byte, error) {
	srcK, dstK := srcP.Kind(ct), dstP.Kind(ct)
	srcSize, dstSize := srcP.SizeOf(srcK), dstP.SizeOf(dstK)
	if count < 0 || len(src) < srcSize*count {
		return nil, fmt.Errorf("oracle: %d elements of %v, %d source bytes", count, ct, len(src))
	}
	out := make([]byte, dstSize*count)
	if srcP.SameABI(dstP) && (ct != platform.CPtr || opt.Ptr == PtrRaw) {
		copy(out, src)
		return out, nil
	}
	for i := 0; i < count; i++ {
		s, d := src[i*srcSize:], out[i*dstSize:]
		switch {
		case ct == platform.CPtr:
			v := srcP.Uint(s, srcSize)
			switch opt.Ptr {
			case PtrAnnul:
				dstP.PutUint(d, dstSize, 0)
			case PtrRaw:
				dstP.PutUint(d, dstSize, v)
			case PtrTranslate:
				if opt.Translator == nil {
					return nil, fmt.Errorf("oracle: PtrTranslate without a Translator")
				}
				local, ok := opt.Translator.Translate(v)
				if !ok {
					local = 0
				}
				dstP.PutUint(d, dstSize, local)
			default:
				return nil, fmt.Errorf("oracle: unknown pointer mode %d", opt.Ptr)
			}
		case srcK.Float() && srcK == dstK:
			dstP.PutUint(d, dstSize, srcP.Uint(s, srcSize))
		case srcK.Float():
			var v float64
			if srcK == platform.Float32 {
				v = float64(srcP.Float32(s))
			} else {
				v = srcP.Float64(s)
			}
			if dstK == platform.Float32 {
				dstP.PutFloat32(d, float32(v))
			} else {
				dstP.PutFloat64(d, v)
			}
		case srcK.Signed():
			dstP.PutInt(d, dstSize, srcP.Int(s, srcSize))
		default:
			dstP.PutUint(d, dstSize, srcP.Uint(s, srcSize))
		}
	}
	return out, nil
}

// stubTranslator maps every third address nowhere (annulled) and scrambles
// the rest, so a translated pointer differs from its raw bits.
type stubTranslator struct{}

func (stubTranslator) Translate(remote uint64) (uint64, bool) {
	return remote*0x9e3779b97f4a7c15 ^ 0x5a5a, remote%3 != 0
}

var fuzzCTypes = []platform.CType{
	platform.CChar, platform.CShort, platform.CInt, platform.CLong, platform.CLongLong,
	platform.CFloat, platform.CDouble, platform.CPtr, platform.CUInt, platform.CULong,
}

// planSeed encodes vals as ct on src, the way a fuzz seed carries them.
func planSeed(src *platform.Platform, ct platform.CType, vals ...uint64) []byte {
	size := src.CSizeOf(ct)
	b := make([]byte, size*len(vals))
	for i, v := range vals {
		src.PutUint(b[i*size:], size, v)
	}
	return b
}

// FuzzPlan runs every compiled kernel against the per-element oracle: any
// source bytes, any element count the bytes hold, every ordered pair of
// platforms, every C type and every pointer mode must agree byte for byte.
// The seed corpus covers every (pair, type, mode) combination, plus the
// edge values of edge_test.go.
func FuzzPlan(f *testing.F) {
	plats := platform.All()
	// 71 bytes leave a sub-word tail of 2- and 4-byte elements.
	mixed := make([]byte, 71)
	for i := range mixed {
		mixed[i] = byte(i*37 + 11)
	}
	for s := range plats {
		for d := range plats {
			for c := range fuzzCTypes {
				for m := PtrAnnul; m <= PtrTranslate; m++ {
					f.Add(mixed, uint16(len(mixed)), uint8(s), uint8(d), uint8(c), uint8(m))
				}
			}
		}
	}
	idx := func(p *platform.Platform) uint8 {
		for i, q := range plats {
			if q == p {
				return uint8(i)
			}
		}
		panic(p.Name)
	}
	ctIdx := func(ct platform.CType) uint8 {
		for i, c := range fuzzCTypes {
			if c == ct {
				return uint8(i)
			}
		}
		panic(ct)
	}
	for _, pair := range edgePairs {
		s, d := pair[0], pair[1]
		seed := func(ct platform.CType, m PtrMode, vals ...uint64) {
			f.Add(planSeed(s, ct, vals...), uint16(len(vals)), idx(s), idx(d), ctIdx(ct), uint8(m))
		}
		seed(platform.CDouble, PtrAnnul, 0x7ff8_0000_0000_babe, 0x7ff0_0000_0000_0001, 0xfff8_0000_dead_0000,
			math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)), 1, 0x000f_ffff_ffff_ffff)
		seed(platform.CFloat, PtrAnnul, 0x7fc0_beef, 0x7f80_0001, 0x7f80_0000, 0xff80_0000, 0x8000_0000, 1, 0x007f_ffff)
		seed(platform.CLong, PtrAnnul, math.MaxInt32+1, 0xfefd_fcfb_fafa_f9f8, 0xffff_ffff_8000_0000)
		seed(platform.CULong, PtrAnnul, 0x1_0000_0003, 0xffff_ffff)
		seed(platform.CShort, PtrAnnul, 0xfefe, 0x8000)
		for m := PtrAnnul; m <= PtrTranslate; m++ {
			seed(platform.CPtr, m, 0x4005_8000, 0xffff_8000_4005_8000, 0xdead_beef)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte, count uint16, si, di, ci, mi uint8) {
		srcP, dstP := plats[int(si)%len(plats)], plats[int(di)%len(plats)]
		ct := fuzzCTypes[int(ci)%len(fuzzCTypes)]
		opt := Options{Ptr: PtrMode(mi % 3)}
		if opt.Ptr == PtrTranslate {
			opt.Translator = stubTranslator{}
		}
		n := int(count)
		if max := len(data) / srcP.CSizeOf(ct); n > max {
			n = max
		}
		want, err := oracleRun(dstP, data, srcP, ct, n, opt)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := NewPlan(dstP, srcP, ct, opt)
		if err != nil {
			t.Fatalf("%s -> %s %v: %v", srcP, dstP, ct, err)
		}
		// Append onto a prefix that must survive, into a buffer whose
		// stale contents must not show through.
		dst := bytes.Repeat([]byte{0xa5}, 3+len(want))[:3]
		got, err := pl.Append(dst, data, n)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:3], []byte{0xa5, 0xa5, 0xa5}) || !bytes.Equal(got[3:], want) {
			t.Fatalf("%s -> %s %v %v, %d elements:\nplan   % x\noracle % x", srcP, dstP, ct, opt.Ptr, n, got, want)
		}
		if pl.Copy() && !bytes.Equal(want, data[:len(want)]) {
			t.Fatalf("%s -> %s %v: copy plan, but the oracle changed the bytes", srcP, dstP, ct)
		}
	})
}

// TestPlanRunChecksLengths: a plan refuses a source or destination too
// short for the count, and a negative count.
func TestPlanRunChecksLengths(t *testing.T) {
	pl, err := NewPlan(lx6, sp, platform.CLong, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pl.SrcSize() != 4 || pl.DstSize() != 8 || pl.Copy() {
		t.Fatalf("ILP32 -> LP64 long: sizes %d -> %d, copy %v", pl.SrcSize(), pl.DstSize(), pl.Copy())
	}
	src := make([]byte, 8)
	binary.BigEndian.PutUint32(src, 0xffff_fffe)
	if err := pl.Run(make([]byte, 15), src, 2); err == nil {
		t.Error("short destination must fail")
	}
	if err := pl.Run(make([]byte, 16), src, 3); err == nil {
		t.Error("short source must fail")
	}
	if _, err := pl.Append(nil, src, -1); err == nil {
		t.Error("negative count must fail")
	}
	dst := make([]byte, 16)
	if err := pl.Run(dst, src, 2); err != nil {
		t.Fatal(err)
	}
	if got := int64(binary.LittleEndian.Uint64(dst)); got != -2 {
		t.Errorf("widened long = %d, want -2", got)
	}
	if _, err := NewPlan(lx, sp, platform.CPtr, Options{Ptr: PtrMode(7)}); err == nil {
		t.Error("unknown pointer mode must fail")
	}
}
