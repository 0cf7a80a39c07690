package wire

import (
	"fmt"
	"slices"

	"hetdsm/internal/indextable"
	"hetdsm/internal/platform"
	"hetdsm/internal/tag"
)

// HomeImage is a home node's state at a cut, and the only form in which
// that state leaves the process: planned handoff, the bootstrap record of a
// replication stream (hot standby and write-ahead log alike), WAL snapshots
// and coordinated cluster checkpoints all carry exactly this struct
// (DESIGN.md, "Home state image"). dsd.Home captures it in one place and
// rebuilds from it in one place; ha.Backup folds the replication stream
// into one in place.
//
// The master image travels in the capturing home's own representation;
// whoever rebuilds a home converts it receiver-makes-right. Everything else
// is ranks, mutex indices, request ids and index-table spans, which are
// architecture independent.
type HomeImage struct {
	// Platform names the capturing home's platform.
	Platform string
	// Base is the capturing home's GThV base address, needed to translate
	// pointer members into the restoring home's address space.
	Base uint64
	// Image is the master GThV image in Platform's layout.
	Image []byte
	// Tag is Image's CGT-RMR tag.
	Tag string
	// Dirty records whether any update was ever applied.
	Dirty bool
	// Proto is the home's consistency protocol (dsd.Protocol).
	Proto uint8
	// Nthreads is the number of worker threads the home serves.
	Nthreads int32
	// Epoch is the capturing home's fencing epoch; a stream mirror keeps
	// the highest epoch it has seen here.
	Epoch uint64
	// Held maps each held mutex to its holder rank. Empty after a quiescent
	// Detach; a crash cut carries the locks the mirror saw held.
	Held map[int32]int32
	// Joined is the set of ranks that have joined.
	Joined map[int32]bool
	// Applied holds per-rank idempotency watermarks: the highest
	// update-bearing request id already applied. A replayed request at or
	// below it must not re-apply its updates.
	Applied map[int32]uint64
	// Released holds per-rank barrier-release watermarks: the request id of
	// the rank's last barrier arrival whose release was issued. A replayed
	// arrival at or below it gets an immediate release.
	Released map[int32]uint64
	// Pending carries each rank's outstanding catch-up spans and Known the
	// ranks registered at the cut, whose replicas stay valid because Pending
	// is their exact catch-up. Both are exact only while the capturing home
	// accepts no further mutation, i.e. for a planned handoff; a stream
	// mirror cannot follow queue drains and leaves them empty, so every
	// rank is reseeded in full by the home rebuilt from it.
	Pending map[int32][]indextable.Span
	Known   map[int32]bool
}

// Clone returns a deep copy sharing no storage with im. Its maps are never
// nil, so the holder may mutate it in place.
func (im *HomeImage) Clone() *HomeImage {
	c := *im
	c.Image = append([]byte(nil), im.Image...)
	c.Held = cloneMap(im.Held)
	c.Joined = cloneMap(im.Joined)
	c.Applied = cloneMap(im.Applied)
	c.Released = cloneMap(im.Released)
	c.Known = cloneMap(im.Known)
	c.Pending = make(map[int32][]indextable.Span, len(im.Pending))
	for rank, spans := range im.Pending {
		c.Pending[rank] = append([]indextable.Span(nil), spans...)
	}
	return &c
}

func cloneMap[V any](m map[int32]V) map[int32]V {
	c := make(map[int32]V, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// Validate is the one check applied to an image that arrives from a file
// or a socket: the platform is known, the tag and image length match gthv
// laid out on that platform, and every rank, mutex index and pending span
// is in range. It returns the index table of the image's own layout, which
// every consumer needs next (to convert the master, or to fold updates).
func (im *HomeImage) Validate(gthv tag.Struct) (*indextable.Table, error) {
	p := platform.ByName(im.Platform)
	if p == nil {
		return nil, fmt.Errorf("wire: home image from unknown platform %q", im.Platform)
	}
	layout, err := tag.NewLayout(gthv, p)
	if err != nil {
		return nil, err
	}
	if want := tag.FromLayout(layout).String(); im.Tag != want {
		return nil, fmt.Errorf("wire: home image tag %q does not match GThV (%q)", im.Tag, want)
	}
	if len(im.Image) != layout.Size {
		return nil, fmt.Errorf("wire: home image %d bytes, want %d", len(im.Image), layout.Size)
	}
	table, err := indextable.Build(layout, im.Base)
	if err != nil {
		return nil, err
	}
	if im.Nthreads <= 0 {
		return nil, fmt.Errorf("wire: home image for %d threads", im.Nthreads)
	}
	holders := make([]int32, 0, len(im.Held))
	for idx, r := range im.Held {
		if idx < 0 {
			return nil, fmt.Errorf("wire: home image holds negative mutex %d", idx)
		}
		holders = append(holders, r)
	}
	for _, set := range []struct {
		what  string
		ranks []int32
	}{
		{"holder", holders}, {"joined", sortedKeys(im.Joined)}, {"applied", sortedKeys(im.Applied)},
		{"released", sortedKeys(im.Released)}, {"known", sortedKeys(im.Known)}, {"pending", sortedKeys(im.Pending)},
	} {
		for _, r := range set.ranks {
			if r < 0 || r >= im.Nthreads {
				return nil, fmt.Errorf("wire: home image %s rank %d outside [0,%d)", set.what, r, im.Nthreads)
			}
		}
	}
	for r, spans := range im.Pending {
		for _, s := range spans {
			if s.Entry < 0 || s.Entry >= table.Len() || s.First < 0 || s.Count <= 0 ||
				s.First+s.Count > table.Entry(s.Entry).Count {
				return nil, fmt.Errorf("wire: home image pending span %d/%d/%d for rank %d outside its entry",
					s.Entry, s.First, s.Count, r)
			}
		}
	}
	return table, nil
}

// sortedKeys returns m's keys ascending, so encodings are deterministic.
func sortedKeys[V any](m map[int32]V) []int32 {
	keys := make([]int32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// encodeMap writes a rank- or mutex-keyed map in key order; val writes one
// value.
func encodeMap[V any](e *encoder, m map[int32]V, val func(V)) {
	e.uvarint(uint64(len(m)))
	for _, k := range sortedKeys(m) {
		e.varint(int64(k))
		val(m[k])
	}
}

func (e *encoder) home(im *HomeImage) {
	member := func(bool) {} // a set: the key is all
	e.str(im.Platform)
	e.uvarint(im.Base)
	e.bytes(im.Image)
	e.str(im.Tag)
	e.flag(im.Dirty)
	e.u8(im.Proto)
	e.varint(int64(im.Nthreads))
	e.uvarint(im.Epoch)
	encodeMap(e, im.Held, func(holder int32) { e.varint(int64(holder)) })
	encodeMap(e, im.Joined, member)
	encodeMap(e, im.Applied, e.uvarint)
	encodeMap(e, im.Released, e.uvarint)
	encodeMap(e, im.Pending, func(spans []indextable.Span) {
		e.uvarint(uint64(len(spans)))
		for _, s := range spans {
			e.varint(int64(s.Entry))
			e.varint(int64(s.First))
			e.varint(int64(s.Count))
		}
	})
	encodeMap(e, im.Known, member)
}

// decodeMap is encodeMap's inverse; an empty map decodes as nil. An entry
// takes at least minSize bytes.
func decodeMap[V any](d *decoder, what string, minSize int, val func() V) map[int32]V {
	n := d.count(what, minSize)
	if n == 0 {
		return nil
	}
	m := make(map[int32]V, n)
	for ; n > 0 && d.err == nil; n-- {
		k := d.i32()
		m[k] = val()
	}
	return m
}

func (d *decoder) home() *HomeImage {
	member := func() bool { return true }
	im := &HomeImage{
		Platform: d.str(), Base: d.uvarint(), Image: d.bytes(), Tag: d.str(),
		Dirty: d.u8() == 1, Proto: d.u8(), Nthreads: d.i32(), Epoch: d.uvarint(),
	}
	im.Held = decodeMap(d, "held", 2, d.i32)
	im.Joined = decodeMap(d, "joined", 1, member)
	im.Applied = decodeMap(d, "applied", 2, d.uvarint)
	im.Released = decodeMap(d, "released", 2, d.uvarint)
	im.Pending = decodeMap(d, "pending", 2, func() []indextable.Span {
		var spans []indextable.Span
		for n := d.count("pending-span", 3); n > 0 && d.err == nil; n-- {
			spans = append(spans, indextable.Span{Entry: int(d.i32()), First: int(d.i32()), Count: int(d.i32())})
		}
		return spans
	})
	im.Known = decodeMap(d, "known", 1, member)
	return im
}
