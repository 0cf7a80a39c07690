package dsd

import (
	"fmt"

	"hetdsm/internal/indextable"
	"hetdsm/internal/platform"
	"hetdsm/internal/tag"
	"hetdsm/internal/vmem"
)

// Globals is the typed view of one node's GThV replica. All stores go
// through the segment's write-detection path, so the DSM sees them; loads
// are free. A Globals belongs to one thread and is not safe for concurrent
// use, matching the paper's model where each thread owns its address space.
type Globals struct {
	plat  *platform.Platform
	table *indextable.Table
	seg   *vmem.Segment
	// ensure, when set, is invoked before reads to make the element range
	// current (the invalidate protocol's demand fetch). nil on the home's
	// master view and under the update protocol (where it is a no-op).
	ensure func(entry, first, count int) error
	// wrote, when set, records that the element range was overwritten
	// locally: a stale marking no longer applies (the local value is the
	// truth until the next release).
	wrote func(entry, first, count int)
	// rec, when set, observes typed signed-integer accesses for the
	// deterministic test harness; rank labels them.
	rec  Recorder
	rank int32
}

func newGlobals(p *platform.Platform, t *indextable.Table, s *vmem.Segment) *Globals {
	return &Globals{plat: p, table: t, seg: s}
}

// GlobalsFor builds a typed view over a raw GThV image laid out for plat
// at base — no home, no thread. The sharded directory uses it to verify a
// merged master image (each shard contributes its owned entries) against
// the single-home result; checkpoint tooling can inspect snapshots with it.
// The image is copied into a fresh segment, so the caller's buffer is not
// aliased.
func GlobalsFor(gthv tag.Struct, p *platform.Platform, base uint64, img []byte) (*Globals, error) {
	layout, err := tag.NewLayout(gthv, p)
	if err != nil {
		return nil, err
	}
	if len(img) != layout.Size {
		return nil, fmt.Errorf("dsd: image %d bytes, want %d for %s", len(img), layout.Size, p)
	}
	table, err := indextable.Build(layout, base)
	if err != nil {
		return nil, err
	}
	seg, err := vmem.NewSegment(base, layout.Size, p.PageSize)
	if err != nil {
		return nil, err
	}
	if err := seg.RawWrite(0, img); err != nil {
		return nil, err
	}
	return newGlobals(p, table, seg), nil
}

// Platform returns the platform the replica is laid out for.
func (g *Globals) Platform() *platform.Platform { return g.plat }

// Table returns the node's index table.
func (g *Globals) Table() *indextable.Table { return g.table }

// Var resolves a GThV member by its dotted path into a typed handle.
func (g *Globals) Var(name string) (*Var, error) {
	e, ok := g.table.EntryByName(name)
	if !ok {
		return nil, fmt.Errorf("dsd: GThV has no member %q", name)
	}
	return &Var{g: g, e: e}, nil
}

// MustVar is Var that panics on unknown members; for statically known
// member names in workloads and examples.
func (g *Globals) MustVar(name string) *Var {
	v, err := g.Var(name)
	if err != nil {
		panic(err)
	}
	return v
}

// Var is a typed handle on one GThV element (a scalar or an array of
// scalars). Element indexes are 0-based.
type Var struct {
	g *Globals
	e indextable.Entry
}

// Name returns the member path.
func (v *Var) Name() string { return v.e.Name }

// Len returns the element count (1 for scalars).
func (v *Var) Len() int { return v.e.Count }

// ElemSize returns the per-element size on this platform.
func (v *Var) ElemSize() int { return v.e.ElemSize }

// IsPointer reports whether the elements are pointers (use Ptr/SetPtr, not
// the integer accessors).
func (v *Var) IsPointer() bool { return v.e.Pointer }

func (v *Var) offsetOf(i int) (int, error) {
	if i < 0 || i >= v.e.Count {
		return 0, fmt.Errorf("dsd: %s[%d] out of range [0,%d)", v.e.Name, i, v.e.Count)
	}
	return v.e.Offset + i*v.e.ElemSize, nil
}

// ensureRead makes [first, first+count) current before a load.
func (v *Var) ensureRead(first, count int) error {
	if v.g.ensure == nil {
		return nil
	}
	return v.g.ensure(v.e.Index, first, count)
}

// store marks elements [first, first+count) locally authoritative, takes
// their write traps, and returns their bytes in the replica for the caller
// to encode into: a store writes the replica once, with no staging buffer.
// The range must already be bounds-checked.
func (v *Var) store(first, count int) ([]byte, error) {
	if v.g.wrote != nil {
		v.g.wrote(v.e.Index, first, count)
	}
	return v.g.seg.WriteView(v.e.Offset+first*v.e.ElemSize, count*v.e.ElemSize)
}

// SetInt stores a signed integer into element i in the platform's native
// representation (size and byte order), trapping write detection.
func (v *Var) SetInt(i int, x int64) error {
	if _, err := v.offsetOf(i); err != nil {
		return err
	}
	buf, err := v.store(i, 1)
	if err != nil {
		return err
	}
	v.g.plat.PutInt(buf, v.e.ElemSize, x)
	if v.g.rec != nil {
		// Record the canonical stored value — what a load returns after the
		// element's size truncation — not the caller's argument, so a
		// checker's memory model matches the replica bit-for-bit.
		v.g.rec.Write(v.g.rank, v.e.Name, i, v.g.plat.Int(buf, v.e.ElemSize))
	}
	return nil
}

// Int loads element i as a signed integer.
func (v *Var) Int(i int) (int64, error) {
	off, err := v.offsetOf(i)
	if err != nil {
		return 0, err
	}
	if err := v.ensureRead(i, 1); err != nil {
		return 0, err
	}
	b, err := v.g.seg.View(off, v.e.ElemSize)
	if err != nil {
		return 0, err
	}
	x := v.g.plat.Int(b, v.e.ElemSize)
	if v.g.rec != nil {
		v.g.rec.Read(v.g.rank, v.e.Name, i, x)
	}
	return x, nil
}

// SetInts stores consecutive elements starting at first with one segment
// write — the bulk store workloads use for matrix rows.
func (v *Var) SetInts(first int, xs []int64) error {
	if len(xs) == 0 {
		return nil
	}
	if _, err := v.offsetOf(first); err != nil {
		return err
	}
	if _, err := v.offsetOf(first + len(xs) - 1); err != nil {
		return err
	}
	buf, err := v.store(first, len(xs))
	if err != nil {
		return err
	}
	v.g.plat.PutInts(buf, v.e.ElemSize, xs)
	if v.g.rec != nil {
		for i := range xs {
			v.g.rec.Write(v.g.rank, v.e.Name, first+i, v.g.plat.Int(buf[i*v.e.ElemSize:], v.e.ElemSize))
		}
	}
	return nil
}

// Ints loads count consecutive elements starting at first.
func (v *Var) Ints(first, count int) ([]int64, error) {
	if count == 0 {
		return nil, nil
	}
	if _, err := v.offsetOf(first); err != nil {
		return nil, err
	}
	if _, err := v.offsetOf(first + count - 1); err != nil {
		return nil, err
	}
	if err := v.ensureRead(first, count); err != nil {
		return nil, err
	}
	b, err := v.g.seg.View(v.e.Offset+first*v.e.ElemSize, count*v.e.ElemSize)
	if err != nil {
		return nil, err
	}
	out := make([]int64, count)
	for i := range out {
		out[i] = v.g.plat.Int(b[i*v.e.ElemSize:], v.e.ElemSize)
	}
	if v.g.rec != nil {
		for i, x := range out {
			v.g.rec.Read(v.g.rank, v.e.Name, first+i, x)
		}
	}
	return out, nil
}

// SetUint stores an unsigned integer into element i. Use this (not SetInt)
// for unsigned C types so large values survive the round trip; SetInt on an
// unsigned element stores the two's-complement bits, which read back
// sign-extended through Int.
func (v *Var) SetUint(i int, x uint64) error {
	if _, err := v.offsetOf(i); err != nil {
		return err
	}
	buf, err := v.store(i, 1)
	if err != nil {
		return err
	}
	v.g.plat.PutUint(buf, v.e.ElemSize, x)
	return nil
}

// Uint loads element i as an unsigned integer (zero-extended).
func (v *Var) Uint(i int) (uint64, error) {
	off, err := v.offsetOf(i)
	if err != nil {
		return 0, err
	}
	if err := v.ensureRead(i, 1); err != nil {
		return 0, err
	}
	b, err := v.g.seg.View(off, v.e.ElemSize)
	if err != nil {
		return 0, err
	}
	return v.g.plat.Uint(b, v.e.ElemSize), nil
}

// SetFloat64 stores a double into element i. The element's logical type
// must be double.
func (v *Var) SetFloat64(i int, x float64) error {
	if err := v.requireKind(platform.CDouble); err != nil {
		return err
	}
	if _, err := v.offsetOf(i); err != nil {
		return err
	}
	buf, err := v.store(i, 1)
	if err != nil {
		return err
	}
	v.g.plat.PutFloat64(buf, x)
	return nil
}

// Float64 loads element i as a double.
func (v *Var) Float64(i int) (float64, error) {
	if err := v.requireKind(platform.CDouble); err != nil {
		return 0, err
	}
	off, err := v.offsetOf(i)
	if err != nil {
		return 0, err
	}
	if err := v.ensureRead(i, 1); err != nil {
		return 0, err
	}
	b, err := v.g.seg.View(off, 8)
	if err != nil {
		return 0, err
	}
	return v.g.plat.Float64(b), nil
}

// SetFloat64s stores consecutive doubles starting at first in one write.
func (v *Var) SetFloat64s(first int, xs []float64) error {
	if err := v.requireKind(platform.CDouble); err != nil {
		return err
	}
	if len(xs) == 0 {
		return nil
	}
	if _, err := v.offsetOf(first); err != nil {
		return err
	}
	if _, err := v.offsetOf(first + len(xs) - 1); err != nil {
		return err
	}
	buf, err := v.store(first, len(xs))
	if err != nil {
		return err
	}
	v.g.plat.PutFloat64s(buf, xs)
	return nil
}

// Float64s loads count consecutive doubles starting at first.
func (v *Var) Float64s(first, count int) ([]float64, error) {
	if err := v.requireKind(platform.CDouble); err != nil {
		return nil, err
	}
	if count == 0 {
		return nil, nil
	}
	if _, err := v.offsetOf(first); err != nil {
		return nil, err
	}
	if _, err := v.offsetOf(first + count - 1); err != nil {
		return nil, err
	}
	if err := v.ensureRead(first, count); err != nil {
		return nil, err
	}
	b, err := v.g.seg.View(v.e.Offset+first*8, count*8)
	if err != nil {
		return nil, err
	}
	out := make([]float64, count)
	for i := range out {
		out[i] = v.g.plat.Float64(b[i*8:])
	}
	return out, nil
}

// SetPtr stores a pointer value (a local GThV address) into element i. The
// element must be a pointer.
func (v *Var) SetPtr(i int, addr uint64) error {
	if !v.e.Pointer {
		return fmt.Errorf("dsd: %s is not a pointer", v.e.Name)
	}
	if _, err := v.offsetOf(i); err != nil {
		return err
	}
	buf, err := v.store(i, 1)
	if err != nil {
		return err
	}
	v.g.plat.PutUint(buf, v.e.ElemSize, addr)
	if v.g.rec != nil {
		// Record the logical target of the canonical stored address (after
		// the element's size truncation), so the checker compares
		// platform-independent (member, element) pairs, never raw bits.
		t, ti := v.g.resolveAddr(v.g.plat.Uint(buf, v.e.ElemSize))
		v.g.rec.WritePtr(v.g.rank, v.e.Name, i, t, ti)
	}
	return nil
}

// Ptr loads element i as a pointer value.
func (v *Var) Ptr(i int) (uint64, error) {
	if !v.e.Pointer {
		return 0, fmt.Errorf("dsd: %s is not a pointer", v.e.Name)
	}
	off, err := v.offsetOf(i)
	if err != nil {
		return 0, err
	}
	if err := v.ensureRead(i, 1); err != nil {
		return 0, err
	}
	b, err := v.g.seg.View(off, v.e.ElemSize)
	if err != nil {
		return 0, err
	}
	addr := v.g.plat.Uint(b, v.e.ElemSize)
	if v.g.rec != nil {
		t, ti := v.g.resolveAddr(addr)
		v.g.rec.ReadPtr(v.g.rank, v.e.Name, i, t, ti)
	}
	return addr, nil
}

// Resolve maps a pointer value (a local GThV address, e.g. one loaded via
// Ptr) back to the member path and element index it points at. It returns
// ok false for null or out-of-segment addresses — the pointer-chasing
// workloads' stop condition.
func (g *Globals) Resolve(addr uint64) (name string, index int, ok bool) {
	name, index = g.resolveAddr(addr)
	return name, index, name != ""
}

// resolveAddr is Resolve without the ok bit: ("", -1) marks unresolvable.
func (g *Globals) resolveAddr(addr uint64) (string, int) {
	if addr == 0 {
		return "", -1
	}
	entry, elem, ok := g.table.MapAddr(addr)
	if !ok {
		return "", -1
	}
	return g.table.Entry(entry).Name, elem
}

// Addr returns the local virtual address of element i, the value one
// stores into pointer members.
func (v *Var) Addr(i int) (uint64, error) {
	off, err := v.offsetOf(i)
	if err != nil {
		return 0, err
	}
	return v.g.seg.Addr(off), nil
}

func (v *Var) requireKind(ct platform.CType) error {
	if v.e.CType != ct {
		return fmt.Errorf("dsd: %s is %v, not %v", v.e.Name, v.e.CType, ct)
	}
	return nil
}

// SetFloat32 stores a C float into element i. The element's logical type
// must be float.
func (v *Var) SetFloat32(i int, x float32) error {
	if err := v.requireKind(platform.CFloat); err != nil {
		return err
	}
	if _, err := v.offsetOf(i); err != nil {
		return err
	}
	buf, err := v.store(i, 1)
	if err != nil {
		return err
	}
	v.g.plat.PutFloat32(buf, x)
	return nil
}

// Float32 loads element i as a C float.
func (v *Var) Float32(i int) (float32, error) {
	if err := v.requireKind(platform.CFloat); err != nil {
		return 0, err
	}
	off, err := v.offsetOf(i)
	if err != nil {
		return 0, err
	}
	if err := v.ensureRead(i, 1); err != nil {
		return 0, err
	}
	b, err := v.g.seg.View(off, 4)
	if err != nil {
		return 0, err
	}
	return v.g.plat.Float32(b), nil
}
