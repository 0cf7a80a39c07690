package platform

import (
	"encoding/binary"
	"fmt"
	"math"
)

// byteOrder returns the encoding/binary order for the platform.
func (p *Platform) byteOrder() binary.ByteOrder {
	if p.Order == Big {
		return binary.BigEndian
	}
	return binary.LittleEndian
}

// PutUint writes the low size bytes of v into b in the platform's byte
// order. size must be 1, 2, 4 or 8 and len(b) must be at least size.
func (p *Platform) PutUint(b []byte, size int, v uint64) {
	switch size {
	case 1:
		b[0] = byte(v)
	case 2:
		p.byteOrder().PutUint16(b, uint16(v))
	case 4:
		p.byteOrder().PutUint32(b, uint32(v))
	case 8:
		p.byteOrder().PutUint64(b, v)
	default:
		panic(fmt.Sprintf("platform: bad scalar size %d", size))
	}
}

// Uint reads a size-byte unsigned integer from b in the platform's byte
// order.
func (p *Platform) Uint(b []byte, size int) uint64 {
	switch size {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(p.byteOrder().Uint16(b))
	case 4:
		return uint64(p.byteOrder().Uint32(b))
	case 8:
		return p.byteOrder().Uint64(b)
	default:
		panic(fmt.Sprintf("platform: bad scalar size %d", size))
	}
}

// PutInt writes a size-byte signed integer (two's complement) in the
// platform's byte order.
func (p *Platform) PutInt(b []byte, size int, v int64) {
	p.PutUint(b, size, uint64(v))
}

// Int reads a size-byte signed integer, sign-extending to 64 bits.
func (p *Platform) Int(b []byte, size int) int64 {
	u := p.Uint(b, size)
	shift := uint(64 - size*8)
	return int64(u<<shift) >> shift
}

// PutInts writes xs as consecutive size-byte signed integers: PutInt over a
// run, with the byte order and width resolved once rather than per element.
func (p *Platform) PutInts(b []byte, size int, xs []int64) {
	b = b[:size*len(xs)]
	switch {
	case size == 4 && p.Order == Little:
		for i, x := range xs {
			binary.LittleEndian.PutUint32(b[4*i:], uint32(x))
		}
	case size == 4:
		for i, x := range xs {
			binary.BigEndian.PutUint32(b[4*i:], uint32(x))
		}
	case size == 8 && p.Order == Little:
		for i, x := range xs {
			binary.LittleEndian.PutUint64(b[8*i:], uint64(x))
		}
	case size == 8:
		for i, x := range xs {
			binary.BigEndian.PutUint64(b[8*i:], uint64(x))
		}
	default:
		for i, x := range xs {
			p.PutInt(b[size*i:], size, x)
		}
	}
}

// PutFloat64s writes xs as consecutive IEEE-754 doubles in the platform's
// byte order, resolved once for the run.
func (p *Platform) PutFloat64s(b []byte, xs []float64) {
	b = b[:8*len(xs)]
	if p.Order == Little {
		for i, x := range xs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
		}
		return
	}
	for i, x := range xs {
		binary.BigEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
}

// PutFloat32 writes an IEEE-754 single in the platform's byte order.
func (p *Platform) PutFloat32(b []byte, v float32) {
	p.byteOrder().PutUint32(b, math.Float32bits(v))
}

// Float32 reads an IEEE-754 single in the platform's byte order.
func (p *Platform) Float32(b []byte) float32 {
	return math.Float32frombits(p.byteOrder().Uint32(b))
}

// PutFloat64 writes an IEEE-754 double in the platform's byte order.
func (p *Platform) PutFloat64(b []byte, v float64) {
	p.byteOrder().PutUint64(b, math.Float64bits(v))
}

// Float64 reads an IEEE-754 double in the platform's byte order.
func (p *Platform) Float64(b []byte) float64 {
	return math.Float64frombits(p.byteOrder().Uint64(b))
}

// PutScalar stores v (one of int64, uint64, float32, float64) into b using
// the physical kind k. It is the generic path used by frame and global
// accessors; hot paths use the typed Put* methods directly.
func (p *Platform) PutScalar(b []byte, k Kind, v interface{}) {
	size := p.SizeOf(k)
	switch k {
	case Float32:
		p.PutFloat32(b, toFloat64AsFloat32(v))
	case Float64:
		p.PutFloat64(b, toFloat64(v))
	default:
		switch x := v.(type) {
		case int64:
			p.PutInt(b, size, x)
		case uint64:
			p.PutUint(b, size, x)
		case int:
			p.PutInt(b, size, int64(x))
		default:
			panic(fmt.Sprintf("platform: PutScalar(%v) with %T", k, v))
		}
	}
}

// Scalar loads a value of physical kind k from b. Integers come back as
// int64 (signed kinds) or uint64 (unsigned kinds and pointers); floats as
// float32/float64.
func (p *Platform) Scalar(b []byte, k Kind) interface{} {
	size := p.SizeOf(k)
	switch {
	case k == Float32:
		return p.Float32(b)
	case k == Float64:
		return p.Float64(b)
	case k.Signed():
		return p.Int(b, size)
	default:
		return p.Uint(b, size)
	}
}

func toFloat64(v interface{}) float64 {
	switch x := v.(type) {
	case float64:
		return x
	case float32:
		return float64(x)
	case int64:
		return float64(x)
	case int:
		return float64(x)
	case uint64:
		return float64(x)
	default:
		panic(fmt.Sprintf("platform: cannot treat %T as float", v))
	}
}

func toFloat64AsFloat32(v interface{}) float32 {
	return float32(toFloat64(v))
}
