// Package convert implements CGT-RMR "receiver makes right" data
// conversion (paper Section 3.2 and 4.1).
//
// A sender transmits its raw memory image plus tags; the receiver compares
// the sender's representation with its own and converts only when they
// differ. Homogeneous peers take a memcpy fast path (the paper's tag
// string comparison); heterogeneous peers walk the data element by element,
// byte-swapping, resizing with sign extension, and rounding floats.
//
// Tags alone carry sizes, not signedness or float-ness; the receiver knows
// the logical type of every global from its own index table (the tables are
// architecture independent, paper Section 4), which is what allows a
// correct widening/narrowing conversion. The functions here therefore take
// the logical type alongside the two platforms.
package convert

import (
	"fmt"
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

// ScalarRun converts count elements of the logical C type ct from the
// source platform's representation in src to the destination platform's
// representation, appending to dst and returning the extended slice.
//
// This is the workhorse of the DSD update path: every update record is a
// run of identical scalars (the coalesced array spans of paper Section 5).
func ScalarRun(dst []byte, dstP *platform.Platform, src []byte, srcP *platform.Platform, ct platform.CType, count int, opt Options) ([]byte, Stats, error) {
	if count < 0 {
		return dst, Stats{}, fmt.Errorf("convert: negative count %d", count)
	}
	srcK, dstK := srcP.Kind(ct), dstP.Kind(ct)
	srcSize, dstSize := srcP.SizeOf(srcK), dstP.SizeOf(dstK)
	if len(src) < srcSize*count {
		return dst, Stats{}, fmt.Errorf("convert: %d elements of %v need %d source bytes, have %d",
			count, ct, srcSize*count, len(src))
	}
	st := Stats{BytesIn: srcSize * count, BytesOut: dstSize * count, Elements: count}

	if FastPath(dstP, srcP, ct, opt) {
		st.FastPath = true
		return append(dst, src[:srcSize*count]...), st, nil
	}

	// Grown and cleared rather than appended from a make: the compiler
	// elides that make, but not under -race, where the home would then
	// allocate once per converted update.
	base := len(dst)
	dst = slices.Grow(dst, dstSize*count)[:base+dstSize*count]
	clear(dst[base:])
	if err := runInto(dst[base:], dstP, src, srcP, ct, count, opt); err != nil {
		return dst[:base], st, err
	}
	return dst, st, nil
}

// FastPath reports whether ScalarRun would take the homogeneous fast path
// for ct: identical physical representation, and no pointer rewriting
// requested — a single copy, exactly the paper's memcpy() after the tag
// string comparison. A caller that can use the source bytes where they
// lie skips even that copy.
func FastPath(dstP, srcP *platform.Platform, ct platform.CType, opt Options) bool {
	return srcP.SameABI(dstP) && (ct != platform.CPtr || opt.Ptr == PtrRaw)
}

// runInto converts count elements of ct into out, which must be exactly
// dstSize*count bytes. It always takes the element-wise path; fast-path
// detection is the caller's job.
func runInto(out []byte, dstP *platform.Platform, src []byte, srcP *platform.Platform, ct platform.CType, count int, opt Options) error {
	srcK, dstK := srcP.Kind(ct), dstP.Kind(ct)
	switch {
	case ct == platform.CPtr:
		return convertPointers(out, dstP, src, srcP, count, opt)
	case srcK.Float():
		convertFloats(out, dstP, dstK, src, srcP, srcK, count)
	default:
		convertInts(out, dstP, dstK, src, srcP, srcK, count)
	}
	return nil
}

func convertInts(out []byte, dstP *platform.Platform, dstK platform.Kind, src []byte, srcP *platform.Platform, srcK platform.Kind, count int) {
	srcSize, dstSize := srcP.SizeOf(srcK), dstP.SizeOf(dstK)
	signed := srcK.Signed()
	for i := 0; i < count; i++ {
		s := src[i*srcSize:]
		d := out[i*dstSize:]
		if signed {
			// Sign-extend through 64 bits, then truncate; this is
			// the "sign extension" cost the paper cites for the
			// heterogeneous path.
			dstP.PutInt(d, dstSize, srcP.Int(s, srcSize))
		} else {
			dstP.PutUint(d, dstSize, srcP.Uint(s, srcSize))
		}
	}
}

func convertFloats(out []byte, dstP *platform.Platform, dstK platform.Kind, src []byte, srcP *platform.Platform, srcK platform.Kind, count int) {
	srcSize, dstSize := srcP.SizeOf(srcK), dstP.SizeOf(dstK)
	for i := 0; i < count; i++ {
		s := src[i*srcSize:]
		d := out[i*dstSize:]
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
	}
}

func convertPointers(out []byte, dstP *platform.Platform, src []byte, srcP *platform.Platform, count int, opt Options) error {
	srcSize, dstSize := srcP.PtrSize(), dstP.PtrSize()
	for i := 0; i < count; i++ {
		s := src[i*srcSize:]
		d := out[i*dstSize:]
		v := srcP.Uint(s, srcSize)
		switch opt.Ptr {
		case PtrAnnul:
			dstP.PutUint(d, dstSize, 0)
		case PtrRaw:
			dstP.PutUint(d, dstSize, v)
		case PtrTranslate:
			if opt.Translator == nil {
				return fmt.Errorf("convert: PtrTranslate without a Translator")
			}
			if local, ok := opt.Translator.Translate(v); ok {
				dstP.PutUint(d, dstSize, local)
			} else {
				dstP.PutUint(d, dstSize, 0)
			}
		default:
			return fmt.Errorf("convert: unknown pointer mode %d", opt.Ptr)
		}
	}
	return nil
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
		if err := runInto(dst[:dstL.Size], dstL.Platform, src, srcL.Platform, ct, 1, opt); err != nil {
			return 0, err
		}
		return 1, nil
	}
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
