package dsd

import "hetdsm/internal/indextable"

// tagCache memoizes span tags by shape. A span's CGT-RMR tag depends only
// on its entry's element size, its element count and pointer-ness, and a
// release's spans repeat few shapes (every sparse store is "(4,1)"), so
// t_tag formats each shape once rather than once per span. It is cleared
// when it reaches maxTags shapes. Not safe for concurrent use: a thread
// owns one, the home guards its own with h.mu.
type tagCache map[[2]int]string

const maxTags = 1024

func (c *tagCache) tag(t *indextable.Table, s indextable.Span) string {
	e := t.Entry(s.Entry)
	key := [2]int{e.ElemSize, s.Count}
	if e.Pointer {
		key[1] = -s.Count
	}
	if tg, ok := (*c)[key]; ok {
		return tg
	}
	if len(*c) >= maxTags || *c == nil {
		*c = make(tagCache)
	}
	tg := t.SpanTag(s).String()
	(*c)[key] = tg
	return tg
}
