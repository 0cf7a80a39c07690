// Package checkpoint implements portable, heterogeneous checkpointing of
// application-level thread state — the other half of the MigThread package
// the paper builds on (paper Section 3.1; Jiang & Chaudhary, HICSS 2004).
//
// A Checkpoint freezes everything migration ships — logical PC, the typed
// local frame, the full GThV globals image, and an optional resource
// payload (e.g. a migio descriptor table) — into one self-describing blob
// in the *source* platform's layout, each piece accompanied by its CGT-RMR
// tag. The blob can be written to stable storage and later restored on any
// platform: restoration converts every piece receiver-makes-right, exactly
// like a live migration, so a computation checkpointed on the big-endian
// machine resumes on the little-endian one.
//
// The on-disk format is framed with a magic, a version and a CRC-32 so a
// damaged checkpoint is rejected rather than restored into garbage.
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"hetdsm/internal/convert"
	"hetdsm/internal/platform"
	"hetdsm/internal/tag"
)

// magic identifies a checkpoint blob.
const magic = "HDSMCKPT"

// version is the current format version.
const version = 1

// Checkpoint is a complete application-level thread state in the source
// platform's representation.
type Checkpoint struct {
	// Platform is the source platform's name.
	Platform string
	// PC is the logical program counter.
	PC int64
	// FrameTag and Frame hold the local-variable frame.
	FrameTag string
	Frame    []byte
	// GlobalsTag and Globals hold the full GThV image.
	GlobalsTag string
	Globals    []byte
	// ExtraTag and Extra hold an optional resource payload.
	ExtraTag string
	Extra    []byte
}

// Validate performs structural checks: the platform must be known and each
// tag must parse and account for its payload's bytes.
func (c *Checkpoint) Validate() error {
	if platform.ByName(c.Platform) == nil {
		return fmt.Errorf("checkpoint: unknown platform %q", c.Platform)
	}
	check := func(what, tagStr string, payload []byte) error {
		if tagStr == "" && len(payload) == 0 {
			return nil
		}
		seq, err := tag.Parse(tagStr)
		if err != nil {
			return fmt.Errorf("checkpoint: %s tag: %w", what, err)
		}
		if seq.Bytes() != len(payload) {
			return fmt.Errorf("checkpoint: %s tag covers %d bytes, payload has %d",
				what, seq.Bytes(), len(payload))
		}
		return nil
	}
	if err := check("frame", c.FrameTag, c.Frame); err != nil {
		return err
	}
	if err := check("globals", c.GlobalsTag, c.Globals); err != nil {
		return err
	}
	return check("extra", c.ExtraTag, c.Extra)
}

// Encode serializes the checkpoint with magic, version and CRC framing.
func (c *Checkpoint) Encode() []byte {
	var body []byte
	body = appendString(body, c.Platform)
	body = binary.BigEndian.AppendUint64(body, uint64(c.PC))
	body = appendString(body, c.FrameTag)
	body = appendBytes(body, c.Frame)
	body = appendString(body, c.GlobalsTag)
	body = appendBytes(body, c.Globals)
	body = appendString(body, c.ExtraTag)
	body = appendBytes(body, c.Extra)

	out := make([]byte, 0, len(magic)+1+4+4+len(body))
	out = append(out, magic...)
	out = append(out, version)
	out = binary.BigEndian.AppendUint32(out, uint32(len(body)))
	out = append(out, body...)
	out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
	return out
}

// Decode parses and integrity-checks a checkpoint blob.
func Decode(b []byte) (*Checkpoint, error) {
	hdr := len(magic) + 1 + 4
	if len(b) < hdr+4 {
		return nil, fmt.Errorf("checkpoint: %d bytes is too short", len(b))
	}
	if string(b[:len(magic)]) != magic {
		return nil, fmt.Errorf("checkpoint: bad magic")
	}
	if b[len(magic)] != version {
		return nil, fmt.Errorf("checkpoint: unsupported version %d", b[len(magic)])
	}
	n := int(binary.BigEndian.Uint32(b[len(magic)+1:]))
	if len(b) != hdr+n+4 {
		return nil, fmt.Errorf("checkpoint: body length %d does not match blob of %d bytes", n, len(b))
	}
	body := b[hdr : hdr+n]
	want := binary.BigEndian.Uint32(b[hdr+n:])
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("checkpoint: CRC mismatch (%#x != %#x): blob is corrupt", got, want)
	}

	d := &reader{b: body}
	c := &Checkpoint{}
	c.Platform = d.str()
	c.PC = int64(d.u64())
	c.FrameTag = d.str()
	c.Frame = d.bytes()
	c.GlobalsTag = d.str()
	c.Globals = d.bytes()
	c.ExtraTag = d.str()
	c.Extra = d.bytes()
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(body) {
		return nil, fmt.Errorf("checkpoint: %d trailing bytes", len(body)-d.off)
	}
	return c, nil
}

// Save writes an encoded checkpoint to w.
func (c *Checkpoint) Save(w io.Writer) error {
	_, err := w.Write(c.Encode())
	return err
}

// Load reads an entire checkpoint from r.
func Load(r io.Reader) (*Checkpoint, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return Decode(b)
}

// RestoreFrame converts the checkpointed frame into dest's layout. typ must
// be the frame's declared type.
func (c *Checkpoint) RestoreFrame(typ tag.Struct, dest *platform.Platform) ([]byte, error) {
	return c.restorePiece(typ, dest, c.FrameTag, c.Frame, "frame")
}

// RestoreGlobals converts the checkpointed GThV image into dest's layout.
func (c *Checkpoint) RestoreGlobals(gthv tag.Struct, dest *platform.Platform) ([]byte, error) {
	return c.restorePiece(gthv, dest, c.GlobalsTag, c.Globals, "globals")
}

func (c *Checkpoint) restorePiece(typ tag.Struct, dest *platform.Platform, tagStr string, payload []byte, what string) ([]byte, error) {
	src := platform.ByName(c.Platform)
	if src == nil {
		return nil, fmt.Errorf("checkpoint: unknown platform %q", c.Platform)
	}
	srcLayout, err := tag.NewLayout(typ, src)
	if err != nil {
		return nil, err
	}
	if want := tag.FromLayout(srcLayout).String(); tagStr != want {
		return nil, fmt.Errorf("checkpoint: %s tag %q does not match type (%q)", what, tagStr, want)
	}
	if len(payload) != srcLayout.Size {
		return nil, fmt.Errorf("checkpoint: %s payload %d bytes, want %d", what, len(payload), srcLayout.Size)
	}
	dstLayout, err := tag.NewLayout(typ, dest)
	if err != nil {
		return nil, err
	}
	out, _, err := convert.Value(dstLayout, payload, srcLayout, convert.Options{Ptr: convert.PtrAnnul})
	return out, err
}

func appendString(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

func appendBytes(b, p []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(p)))
	return append(b, p...)
}

type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("checkpoint: truncated at offset %d", r.off)
	}
}

func (r *reader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *reader) str() string {
	n := int(r.u32())
	if r.err != nil || r.off+n > len(r.b) {
		r.fail()
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

func (r *reader) bytes() []byte {
	n := int(r.u32())
	if r.err != nil || n == 0 {
		return nil
	}
	if r.off+n > len(r.b) {
		r.fail()
		return nil
	}
	p := append([]byte(nil), r.b[r.off:r.off+n]...)
	r.off += n
	return p
}
