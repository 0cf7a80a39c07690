package wire

import (
	"testing"

	"hetdsm/internal/indextable"
	"hetdsm/internal/platform"
	"hetdsm/internal/tag"
)

var imageGThV = tag.Struct{Name: "G", Fields: []tag.Field{
	{Name: "p", T: tag.Pointer{}},
	{Name: "A", T: tag.IntArray(8)},
}}

// validImage is an image of imageGThV on solaris-sparc with every list
// populated in range.
func validImage(t *testing.T) *HomeImage {
	t.Helper()
	layout, err := tag.NewLayout(imageGThV, platform.SolarisSPARC)
	if err != nil {
		t.Fatal(err)
	}
	return &HomeImage{
		Platform: platform.SolarisSPARC.Name,
		Base:     0x40058000,
		Image:    make([]byte, layout.Size),
		Tag:      tag.FromLayout(layout).String(),
		Nthreads: 2,
		Held:     map[int32]int32{3: 1},
		Joined:   map[int32]bool{0: true},
		Applied:  map[int32]uint64{0: 9},
		Released: map[int32]uint64{1: 4},
		Pending:  map[int32][]indextable.Span{1: {{Entry: 1, First: 6, Count: 2}}},
		Known:    map[int32]bool{1: true},
	}
}

func TestHomeImageValidate(t *testing.T) {
	table, err := validImage(t).Validate(imageGThV)
	if err != nil {
		t.Fatalf("valid image rejected: %v", err)
	}
	if table.Platform() != platform.SolarisSPARC || table.Len() != 2 {
		t.Errorf("Validate returned a table for %v with %d entries", table.Platform(), table.Len())
	}
	for name, corrupt := range map[string]func(*HomeImage){
		"unknown platform":   func(im *HomeImage) { im.Platform = "vax-780" },
		"foreign tag":        func(im *HomeImage) { im.Tag = "(4,1)" },
		"short image":        func(im *HomeImage) { im.Image = im.Image[1:] },
		"no threads":         func(im *HomeImage) { im.Nthreads = 0 },
		"negative mutex":     func(im *HomeImage) { im.Held[-1] = 0 },
		"holder rank":        func(im *HomeImage) { im.Held[0] = 2 },
		"joined rank":        func(im *HomeImage) { im.Joined[-1] = true },
		"applied rank":       func(im *HomeImage) { im.Applied[2] = 1 },
		"released rank":      func(im *HomeImage) { im.Released[7] = 1 },
		"known rank":         func(im *HomeImage) { im.Known[2] = true },
		"pending rank":       func(im *HomeImage) { im.Pending[2] = nil },
		"span past entry":    func(im *HomeImage) { im.Pending[1][0].Count = 3 },
		"span entry":         func(im *HomeImage) { im.Pending[1][0].Entry = 2 },
		"span negative":      func(im *HomeImage) { im.Pending[1][0].First = -1 },
		"span without count": func(im *HomeImage) { im.Pending[1][0].Count = 0 },
	} {
		im := validImage(t)
		corrupt(im)
		if _, err := im.Validate(imageGThV); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestHomeImageCloneIsDeep mutates every reference-typed field of a clone
// and checks the original is untouched — ha.Backup folds the stream into a
// clone in place.
func TestHomeImageCloneIsDeep(t *testing.T) {
	im := validImage(t)
	want := string(EncodeReplication(&Replication{Home: im}))
	c := im.Clone()
	c.Image[0] = 0xFF
	c.Held[0] = 0
	c.Joined[1] = true
	c.Applied[0] = 99
	c.Released[0] = 99
	c.Pending[1][0].First = 0
	c.Known[0] = true
	if got := string(EncodeReplication(&Replication{Home: im})); got != want {
		t.Error("mutating a clone changed the original")
	}
	if empty := (&HomeImage{}).Clone(); empty.Held == nil || empty.Joined == nil ||
		empty.Applied == nil || empty.Released == nil {
		t.Error("clone of an empty image has nil maps; holders mutate them in place")
	}
}
