// Package convert implements CGT-RMR "receiver makes right" data
// conversion (paper Section 3.2 and 4.1).
//
// A sender transmits its raw memory image plus tags; the receiver compares
// the sender's representation with its own and converts only when they
// differ. Homogeneous peers take a memcpy fast path (the paper's tag
// string comparison); heterogeneous peers byte-swap, resize integers with
// sign extension, and translate or annul pointers.
//
// Tags alone carry sizes, not signedness or float-ness; the receiver knows
// the logical type of every global from its own index table (the tables are
// architecture independent, paper Section 4), which is what allows a
// correct widening/narrowing conversion. A conversion is therefore compiled
// from the logical type and the two platforms into a Plan once, and the
// plan's kernel then runs over whole runs of elements.
package convert

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"hetdsm/internal/platform"
	"hetdsm/internal/tag"
)

// PtrMode selects how pointer values are treated when they cross platforms.
type PtrMode int

const (
	// PtrAnnul zeroes pointers at the receiver: a remote address is
	// meaningless locally and must be re-established through the index
	// table. This is the DSD default for raw pointer payloads.
	PtrAnnul PtrMode = iota
	// PtrRaw transfers the pointer bits unmodified (byte-swapped and
	// resized like an unsigned integer). Used when the value is known to
	// be an index-table-relative reference rather than a raw address.
	PtrRaw
	// PtrTranslate rewrites each pointer through a Translator.
	PtrTranslate
)

// Translator rewrites a source-platform address into the receiver's address
// space. The index table implements this: address → table index → local
// address.
type Translator interface {
	// Translate maps a remote address to a local one. ok is false when
	// the address does not fall inside any shared object, in which case
	// the pointer is annulled.
	Translate(remote uint64) (local uint64, ok bool)
}

// Options configure a conversion.
type Options struct {
	// Ptr selects pointer handling; zero value is PtrAnnul.
	Ptr PtrMode
	// Translator is required when Ptr is PtrTranslate.
	Translator Translator
}

// Stats reports what a conversion did; the DSD layer aggregates these into
// the t_conv component of Eq. 1.
type Stats struct {
	// BytesIn is the number of source bytes consumed.
	BytesIn int
	// BytesOut is the number of destination bytes produced.
	BytesOut int
	// Elements is the number of scalar elements converted.
	Elements int
	// FastPath reports whether the homogeneous memcpy path was taken.
	FastPath bool
}

// kernel is the loop a Plan runs over a run of elements.
type kernel uint8

const (
	kCopy kernel = iota // identical bytes: memcpy
	// Same width, opposite byte order.
	kSwap16
	kSwap32
	kSwap64
	kWiden     // 4 → 8 bytes, zero- or sign-extending
	kNarrow    // 8 → 4 bytes, keeping the low word
	kAnnul     // pointers zeroed
	kTranslate // pointers rewritten one at a time
)

// Plan is receiver-makes-right compiled for one logical C type between two
// platforms: the element size on each side and the one kernel that turns a
// run of source elements into destination elements. Compile it once per
// (source platform, destination platform, type, pointer mode) and run it
// on every update of that type. A Plan is immutable and may be shared.
type Plan struct {
	k                kernel
	ct               platform.CType
	srcSize, dstSize int
	// signed selects sign extension for kWiden; srcBig and dstBig are the
	// two byte orders kWiden and kNarrow read and write.
	signed, srcBig, dstBig bool
	// kTranslate reads, rewrites and writes each pointer through these.
	tr         Translator
	srcP, dstP *platform.Platform
}

// NewPlan compiles the conversion of ct from srcP's representation to
// dstP's. Floats keep their width on every platform (only byte order can
// differ), so they convert through their bits, bit-exact; integers and raw
// pointers of different widths widen with sign or zero extension, or
// narrow to the low word (C's truncation).
func NewPlan(dstP, srcP *platform.Platform, ct platform.CType, opt Options) (Plan, error) {
	srcK, dstK := srcP.Kind(ct), dstP.Kind(ct)
	p := Plan{
		ct:      ct,
		srcSize: srcP.SizeOf(srcK),
		dstSize: dstP.SizeOf(dstK),
		signed:  srcK.Signed(),
		srcBig:  srcP.Order == platform.Big,
		dstBig:  dstP.Order == platform.Big,
	}
	if ct == platform.CPtr {
		switch opt.Ptr {
		case PtrAnnul:
			p.k = kAnnul
			return p, nil
		case PtrTranslate:
			if opt.Translator == nil {
				return Plan{}, fmt.Errorf("convert: PtrTranslate without a Translator")
			}
			p.k, p.tr, p.srcP, p.dstP = kTranslate, opt.Translator, srcP, dstP
			return p, nil
		case PtrRaw:
			// The bits convert like an unsigned integer's, below.
		default:
			return Plan{}, fmt.Errorf("convert: unknown pointer mode %d", opt.Ptr)
		}
	}
	switch {
	case p.srcSize == 4 && p.dstSize == 8:
		p.k = kWiden
	case p.srcSize == 8 && p.dstSize == 4:
		p.k = kNarrow
	case p.srcSize != p.dstSize:
		return Plan{}, fmt.Errorf("convert: no kernel for %v from %d to %d bytes", ct, p.srcSize, p.dstSize)
	case p.srcSize == 1 || p.srcBig == p.dstBig:
		p.k = kCopy
	case p.srcSize == 2:
		p.k = kSwap16
	case p.srcSize == 4:
		p.k = kSwap32
	default:
		p.k = kSwap64
	}
	return p, nil
}

// SrcSize is the size of one source element in bytes.
func (p *Plan) SrcSize() int { return p.srcSize }

// DstSize is the size of one converted element in bytes.
func (p *Plan) DstSize() int { return p.dstSize }

// Copy reports whether the plan is the identity: the source bytes already
// are the destination representation, so a caller can use them where they
// lie instead of converting.
func (p *Plan) Copy() bool { return p.k == kCopy }

// fits checks that src holds count source elements.
func (p *Plan) fits(src []byte, count int) error {
	if count < 0 {
		return fmt.Errorf("convert: negative count %d", count)
	}
	if len(src) < p.srcSize*count {
		return fmt.Errorf("convert: %d elements of %v need %d source bytes, have %d",
			count, p.ct, p.srcSize*count, len(src))
	}
	return nil
}

// Run converts count elements from src into dst, overwriting its first
// DstSize()*count bytes.
func (p *Plan) Run(dst, src []byte, count int) error {
	if err := p.fits(src, count); err != nil {
		return err
	}
	if len(dst) < p.dstSize*count {
		return fmt.Errorf("convert: %d elements of %v need %d destination bytes, have %d",
			count, p.ct, p.dstSize*count, len(dst))
	}
	p.run(dst[:p.dstSize*count], src[:p.srcSize*count])
	return nil
}

// Append converts count elements from src, appending them to dst. Growing
// dst rather than appending from a make matters: the compiler elides that
// make, but not under -race, where the home would then allocate once per
// converted update.
func (p *Plan) Append(dst, src []byte, count int) ([]byte, error) {
	if err := p.fits(src, count); err != nil {
		return dst, err
	}
	base, n := len(dst), p.dstSize*count
	dst = slices.Grow(dst, n)[:base+n]
	p.run(dst[base:], src[:p.srcSize*count])
	return dst, nil
}

// run applies the kernel; src and dst hold exactly the same number of
// elements. Every kernel writes every destination byte.
func (p *Plan) run(dst, src []byte) {
	switch p.k {
	case kCopy:
		copy(dst, src)
	case kSwap16:
		swap16(dst, src)
	case kSwap32:
		swap32(dst, src)
	case kSwap64:
		swap64(dst, src)
	case kWiden:
		widen(dst, src, p.signed, p.srcBig, p.dstBig)
	case kNarrow:
		narrow(dst, src, p.srcBig, p.dstBig)
	case kAnnul:
		clear(dst)
	case kTranslate:
		for i := 0; i < len(src)/p.srcSize; i++ {
			local, ok := p.tr.Translate(p.srcP.Uint(src[i*p.srcSize:], p.srcSize))
			if !ok {
				local = 0
			}
			p.dstP.PutUint(dst[i*p.dstSize:], p.dstSize, local)
		}
	}
}

// The byte-swap kernels work on 8-byte words: one load, one BSWAP and a
// constant lane fix-up per word, then the elements of a sub-word tail one
// by one. Loading little-endian is only a choice of lane numbering; the
// result does not depend on the host's byte order. The int and double
// kernels take four words per iteration, which doubles their throughput;
// short runs are too rare to earn that.

func swap16(dst, src []byte) {
	const lo = 0x00ff00ff00ff00ff
	dst = dst[:len(src)]
	for len(src) >= 8 {
		x := binary.LittleEndian.Uint64(src)
		binary.LittleEndian.PutUint64(dst, x>>8&lo|x&lo<<8)
		src, dst = src[8:], dst[8:]
	}
	for len(src) >= 2 {
		binary.LittleEndian.PutUint16(dst, bits.ReverseBytes16(binary.LittleEndian.Uint16(src)))
		src, dst = src[2:], dst[2:]
	}
}

// swap32w reverses both 4-byte elements of a word: reversing the word
// reverses each and swaps their lanes, and the rotation swaps them back.
func swap32w(x uint64) uint64 { return bits.RotateLeft64(bits.ReverseBytes64(x), 32) }

func swap32(dst, src []byte) {
	dst = dst[:len(src)]
	for len(src) >= 32 {
		s, d := src[:32:32], dst[:32:32]
		x0, x1 := binary.LittleEndian.Uint64(s[0:]), binary.LittleEndian.Uint64(s[8:])
		x2, x3 := binary.LittleEndian.Uint64(s[16:]), binary.LittleEndian.Uint64(s[24:])
		binary.LittleEndian.PutUint64(d[0:], swap32w(x0))
		binary.LittleEndian.PutUint64(d[8:], swap32w(x1))
		binary.LittleEndian.PutUint64(d[16:], swap32w(x2))
		binary.LittleEndian.PutUint64(d[24:], swap32w(x3))
		src, dst = src[32:], dst[32:]
	}
	for len(src) >= 4 {
		binary.LittleEndian.PutUint32(dst, bits.ReverseBytes32(binary.LittleEndian.Uint32(src)))
		src, dst = src[4:], dst[4:]
	}
}

func swap64(dst, src []byte) {
	dst = dst[:len(src)]
	for len(src) >= 32 {
		s, d := src[:32:32], dst[:32:32]
		x0, x1 := binary.LittleEndian.Uint64(s[0:]), binary.LittleEndian.Uint64(s[8:])
		x2, x3 := binary.LittleEndian.Uint64(s[16:]), binary.LittleEndian.Uint64(s[24:])
		binary.LittleEndian.PutUint64(d[0:], bits.ReverseBytes64(x0))
		binary.LittleEndian.PutUint64(d[8:], bits.ReverseBytes64(x1))
		binary.LittleEndian.PutUint64(d[16:], bits.ReverseBytes64(x2))
		binary.LittleEndian.PutUint64(d[24:], bits.ReverseBytes64(x3))
		src, dst = src[32:], dst[32:]
	}
	for len(src) >= 8 {
		binary.LittleEndian.PutUint64(dst, bits.ReverseBytes64(binary.LittleEndian.Uint64(src)))
		src, dst = src[8:], dst[8:]
	}
}

// widen converts 4-byte integers to 8-byte ones. The byte-order and sign
// tests are the same for every element, so they predict perfectly (or
// compile to conditional moves).
func widen(dst, src []byte, signed, srcBig, dstBig bool) {
	dst = dst[:2*len(src)]
	for len(src) >= 4 {
		v := binary.LittleEndian.Uint32(src)
		if srcBig {
			v = bits.ReverseBytes32(v)
		}
		w := uint64(v)
		if signed {
			w = uint64(int64(int32(v)))
		}
		if dstBig {
			w = bits.ReverseBytes64(w)
		}
		binary.LittleEndian.PutUint64(dst, w)
		src, dst = src[4:], dst[8:]
	}
}

// narrow converts 8-byte integers to 4-byte ones, keeping the low word.
func narrow(dst, src []byte, srcBig, dstBig bool) {
	dst = dst[:len(src)/2]
	for len(src) >= 8 {
		w := binary.LittleEndian.Uint64(src)
		if srcBig {
			w = bits.ReverseBytes64(w)
		}
		v := uint32(w)
		if dstBig {
			v = bits.ReverseBytes32(v)
		}
		binary.LittleEndian.PutUint32(dst, v)
		src, dst = src[8:], dst[4:]
	}
}

// ScalarRun converts count elements of the logical C type ct from the
// source platform's representation in src to the destination platform's
// representation, appending to dst and returning the extended slice. It
// compiles a Plan and runs it once; callers converting repeatedly between
// the same two platforms keep the Plan instead.
func ScalarRun(dst []byte, dstP *platform.Platform, src []byte, srcP *platform.Platform, ct platform.CType, count int, opt Options) ([]byte, Stats, error) {
	pl, err := NewPlan(dstP, srcP, ct, opt)
	if err != nil {
		return dst, Stats{}, err
	}
	if dst, err = pl.Append(dst, src, count); err != nil {
		return dst, Stats{}, err
	}
	return dst, Stats{BytesIn: pl.srcSize * count, BytesOut: pl.dstSize * count, Elements: count, FastPath: pl.Copy()}, nil
}

// FastPath reports whether ScalarRun would take the memcpy fast path for
// ct: identical representation, and no pointer rewriting requested — a
// single copy, exactly the paper's memcpy() after the tag string
// comparison. A caller that can use the source bytes where they lie skips
// even that copy.
func FastPath(dstP, srcP *platform.Platform, ct platform.CType, opt Options) bool {
	pl, err := NewPlan(dstP, srcP, ct, opt)
	return err == nil && pl.Copy()
}

// Value converts an entire typed value between platform representations by
// walking the two layouts in parallel. src must hold the value laid out per
// srcL; the result is laid out per dstL (padding zeroed). srcL and dstL
// must realize the same logical type.
//
// This is the path MigThread uses to restore migrated thread frames and the
// DSD uses for whole-structure transfers.
func Value(dstL *tag.Layout, src []byte, srcL *tag.Layout, opt Options) ([]byte, Stats, error) {
	if len(src) < srcL.Size {
		return nil, Stats{}, fmt.Errorf("convert: value needs %d source bytes, have %d", srcL.Size, len(src))
	}
	st := Stats{BytesIn: srcL.Size, BytesOut: dstL.Size}
	if srcL.Platform.SameABI(dstL.Platform) && opt.Ptr != PtrTranslate {
		// Identical images; the paper's tag-string-equality memcpy.
		st.FastPath = true
		out := make([]byte, dstL.Size)
		copy(out, src[:srcL.Size])
		return out, st, nil
	}
	out := make([]byte, dstL.Size)
	n, err := convertValue(out, dstL, src[:srcL.Size], srcL, opt)
	st.Elements = n
	if err != nil {
		return nil, st, err
	}
	return out, st, nil
}

// convertValue walks a struct field by field and runs one plan per scalar
// leaf; an array of scalars is one leaf of N elements.
func convertValue(dst []byte, dstL *tag.Layout, src []byte, srcL *tag.Layout, opt Options) (int, error) {
	switch {
	case srcL.Fields != nil:
		if dstL.Fields == nil || len(dstL.Fields) != len(srcL.Fields) {
			return 0, fmt.Errorf("convert: struct shape mismatch: %s vs %s",
				tag.TypeString(srcL.Type), tag.TypeString(dstL.Type))
		}
		total := 0
		for i := range srcL.Fields {
			sf, df := srcL.Fields[i], dstL.Fields[i]
			n, err := convertValue(
				dst[df.Offset:df.Offset+df.Layout.Size],
				df.Layout,
				src[sf.Offset:sf.Offset+sf.Layout.Size],
				sf.Layout, opt)
			if err != nil {
				return total, fmt.Errorf("field %s: %w", sf.Name, err)
			}
			total += n
		}
		return total, nil
	case srcL.Elem != nil:
		if dstL.Elem == nil || dstL.N != srcL.N {
			return 0, fmt.Errorf("convert: array shape mismatch: %s vs %s",
				tag.TypeString(srcL.Type), tag.TypeString(dstL.Type))
		}
		if srcL.Elem.IsScalar() {
			return convertLeaf(dst, dstL.Elem, src, srcL.Elem, srcL.N, opt)
		}
		total := 0
		ss, ds := srcL.Elem.Size, dstL.Elem.Size
		for i := 0; i < srcL.N; i++ {
			n, err := convertValue(dst[i*ds:(i+1)*ds], dstL.Elem, src[i*ss:(i+1)*ss], srcL.Elem, opt)
			if err != nil {
				return total, fmt.Errorf("element %d: %w", i, err)
			}
			total += n
		}
		return total, nil
	default:
		return convertLeaf(dst, dstL, src, srcL, 1, opt)
	}
}

// convertLeaf converts n consecutive scalars laid out per srcL into dstL's
// representation with one plan.
func convertLeaf(dst []byte, dstL *tag.Layout, src []byte, srcL *tag.Layout, n int, opt Options) (int, error) {
	ct, err := scalarCType(srcL)
	if err != nil {
		return 0, err
	}
	ct2, err := scalarCType(dstL)
	if err != nil {
		return 0, err
	}
	if ct != ct2 {
		return 0, fmt.Errorf("convert: scalar type mismatch: %v vs %v", ct, ct2)
	}
	pl, err := NewPlan(dstL.Platform, srcL.Platform, ct, opt)
	if err != nil {
		return 0, err
	}
	if err := pl.Run(dst, src, n); err != nil {
		return 0, err
	}
	return n, nil
}

// scalarCType recovers the logical C type of a scalar/pointer layout.
func scalarCType(l *tag.Layout) (platform.CType, error) {
	switch t := l.Type.(type) {
	case tag.Scalar:
		return t.T, nil
	case tag.Pointer:
		return platform.CPtr, nil
	default:
		return 0, fmt.Errorf("convert: %s is not a scalar", tag.TypeString(l.Type))
	}
}
