package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"hetdsm/internal/convert"
	"hetdsm/internal/dsd"
	"hetdsm/internal/indextable"
	"hetdsm/internal/platform"
	"hetdsm/internal/tag"
	"hetdsm/internal/transport"
	"hetdsm/internal/vmem"
	"hetdsm/internal/wire"
)

// store is one Var.Set* call of a replayed release: consecutive elements
// of a GThV member, as ints or as doubles.
type store struct {
	name   string
	first  int
	ints   []int64
	floats []float64
}

// replaySpec is one release of a workload, rebuilt outside dsd. stores
// holds the release at two consecutive ops; the replay alternates between
// them so that every iteration changes bytes the way back-to-back ops do.
type replaySpec struct {
	gthv           tag.Struct
	homeP, threadP *platform.Platform
	stores         [2][]store
}

// rawStore is a store encoded for the thread platform.
type rawStore struct {
	off  int
	data []byte
}

func encodeStores(t *indextable.Table, p *platform.Platform, stores []store) ([]rawStore, error) {
	out := make([]rawStore, len(stores))
	for i, s := range stores {
		e, ok := t.EntryByName(s.name)
		if !ok {
			return nil, fmt.Errorf("replay: no GThV member %q", s.name)
		}
		var data []byte
		switch {
		case s.floats != nil:
			data = make([]byte, 8*len(s.floats))
			for k, x := range s.floats {
				p.PutFloat64(data[8*k:], x)
			}
		default:
			data = make([]byte, e.ElemSize*len(s.ints))
			for k, x := range s.ints {
				p.PutInt(data[e.ElemSize*k:], e.ElemSize, x)
			}
		}
		out[i] = rawStore{off: e.Offset + s.first*e.ElemSize, data: data}
	}
	return out, nil
}

// replayBudget bounds the pipeline replay; each echo test gets a third.
const replayBudget = 300 * time.Millisecond

// replayCost is what the replayed releases have cost so far, by stage.
type replayCost struct {
	iters                                         int
	write, diff, mp, tag, enc, dec, conv, apply   time.Duration
	stores, ranges, spans                         int
	dirtyBytes, tagBytes, frameBytes, updateBytes int
}

// replayer holds one thread-side and one home-side replica built outside
// dsd.
type replayer struct {
	spec    *replaySpec
	tt, ht  *indextable.Table
	seg     *vmem.Segment // thread replica
	master  *vmem.Segment // home copy
	raw     [2][]rawStore
	copt    convert.Options
	lastMsg *wire.Message
	frame   []byte
	replayCost
}

func newReplayer(r *replaySpec) (*replayer, error) {
	build := func(p *platform.Platform) (*indextable.Table, *vmem.Segment, error) {
		l, err := tag.NewLayout(r.gthv, p)
		if err != nil {
			return nil, nil, err
		}
		t, err := indextable.Build(l, dsd.DefaultBase)
		if err != nil {
			return nil, nil, err
		}
		s, err := vmem.NewSegment(dsd.DefaultBase, l.Size, p.PageSize)
		return t, s, err
	}
	rp := &replayer{spec: r}
	var err error
	if rp.tt, rp.seg, err = build(r.threadP); err != nil {
		return nil, err
	}
	if rp.ht, rp.master, err = build(r.homeP); err != nil {
		return nil, err
	}
	for j := range rp.raw {
		if rp.raw[j], err = encodeStores(rp.tt, r.threadP, r.stores[j]); err != nil {
			return nil, err
		}
	}
	rp.copt = convert.Options{Ptr: convert.PtrTranslate, Translator: rp.ht.Translator(rp.tt)}
	return rp, nil
}

func clock(d *time.Duration, f func() error) error {
	t := time.Now()
	err := f()
	*d += time.Since(t)
	return err
}

// release runs one release through every public call of the pipeline, in
// order, timing each stage.
func (rp *replayer) release(stores []rawStore) error {
	tt, seg := rp.tt, rp.seg
	seg.ProtectAll()
	err := clock(&rp.write, func() error {
		for _, s := range stores {
			if err := seg.Write(s.off, s.data); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	rp.stores += len(stores)
	rp.dirtyBytes += len(seg.DirtyPages()) * seg.PageSize()

	var ranges []vmem.Range
	clock(&rp.diff, func() error { ranges = seg.Diff(vmem.DiffByte); return nil })
	rp.ranges += len(ranges)

	var spans []indextable.Span
	clock(&rp.mp, func() error { spans = tt.MapRanges(ranges); return nil })
	rp.spans += len(spans)

	tags := make([]string, len(spans))
	clock(&rp.tag, func() error {
		for i, s := range spans {
			tags[i] = tt.SpanTag(s).String()
		}
		return nil
	})

	// Gathering the span data is dsd's own code; rebuilt here untimed.
	updates := make([]wire.Update, len(spans))
	for i, s := range spans {
		buf := make([]byte, tt.SpanBytes(s))
		if _, err := seg.Read(tt.SpanOffset(s), len(buf), buf); err != nil {
			return err
		}
		updates[i] = wire.Update{Entry: int32(s.Entry), First: int32(s.First), Count: int32(s.Count), Tag: tags[i], Data: buf}
		rp.tagBytes += len(tags[i])
		rp.updateBytes += len(buf)
	}
	rp.lastMsg = &wire.Message{Kind: wire.KindUnlockReq, Seq: 1, Platform: rp.spec.threadP.Name, Base: dsd.DefaultBase, Updates: updates}

	err = clock(&rp.enc, func() (err error) { rp.frame, err = wire.Encode(rp.lastMsg); return })
	if err != nil {
		return err
	}
	rp.frameBytes += len(rp.frame)

	var got *wire.Message
	err = clock(&rp.dec, func() (err error) { got, err = wire.Decode(rp.frame); return })
	if err != nil {
		return err
	}
	if len(got.Updates) != len(updates) {
		return fmt.Errorf("decoded %d updates, encoded %d", len(got.Updates), len(updates))
	}

	conv := make([][]byte, len(got.Updates))
	err = clock(&rp.conv, func() (err error) {
		for i := range got.Updates {
			u := &got.Updates[i]
			ct := rp.ht.Entry(int(u.Entry)).CType
			conv[i], _, err = convert.ScalarRun(nil, rp.spec.homeP, u.Data, rp.spec.threadP, ct, int(u.Count), rp.copt)
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	err = clock(&rp.apply, func() error {
		for i, s := range spans {
			if err := rp.master.RawWrite(rp.ht.SpanOffset(s), conv[i]); err != nil {
				return err
			}
		}
		return nil
	})
	rp.iters++
	return err
}

// replayLayers times the release pipeline on the workload's own stores —
// Segment.Write, Segment.Diff, Table.MapRanges, SpanTag().String(),
// wire.Encode, wire.Decode, convert.ScalarRun, Segment.RawWrite — then
// echoes the encoded release over a pipe and over TCP loopback. dsd's
// whole-array widening is unexported and is not replayed. A workload
// without stores (sync.empty) reports zero rates.
func replayLayers(r *replaySpec, budget time.Duration) (map[string]float64, error) {
	rp, err := newReplayer(r)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	// The first release stores over a zeroed segment; it is not counted.
	if err := rp.release(rp.raw[0]); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	rp.replayCost = replayCost{}
	for start := time.Now(); rp.iters < 2 || time.Since(start) < budget; {
		if err := rp.release(rp.raw[(rp.iters+1)&1]); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
	}
	n := float64(rp.iters)

	// Allocations of the wire layer alone, on the last release.
	const allocReps = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < allocReps; i++ {
		f, err := wire.Encode(rp.lastMsg)
		if err != nil {
			return nil, err
		}
		if _, err := wire.Decode(f); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&after)
	wireAllocs := float64(after.Mallocs-before.Mallocs) / allocReps

	a, b := transport.Pipe()
	rttPipe, err := echoRTT(a, b, rp.frame, budget/3)
	if err != nil {
		return nil, fmt.Errorf("replay: pipe echo: %w", err)
	}
	rttTCP, err := tcpRTT(rp.frame, budget/3)
	if err != nil {
		return nil, fmt.Errorf("replay: tcp echo: %w", err)
	}

	ns := func(d time.Duration) float64 { return float64(d.Nanoseconds()) }
	return map[string]float64{
		"vmem.write_ns_per_store":        ratio(ns(rp.write), float64(rp.stores)),
		"vmem.diff_MBps":                 mbps(rp.dirtyBytes, rp.diff),
		"vmem.diff_ranges":               float64(rp.ranges) / n,
		"indextable.map_ns_per_range":    ratio(ns(rp.mp), float64(rp.ranges)),
		"indextable.spans":               float64(rp.spans) / n,
		"tag.format_ns_per_span":         ratio(ns(rp.tag), float64(rp.spans)),
		"tag.bytes_per_span":             ratio(float64(rp.tagBytes), float64(rp.spans)),
		"wire.encode_MBps":               mbps(rp.frameBytes, rp.enc),
		"wire.decode_MBps":               mbps(rp.frameBytes, rp.dec),
		"wire.allocs_per_update":         ratio(wireAllocs, float64(len(rp.lastMsg.Updates))),
		"wire.overhead_bytes_per_update": ratio(float64(rp.frameBytes-rp.updateBytes), float64(rp.spans)),
		"transport.rtt_us.inproc":        rttPipe,
		"transport.rtt_us.tcp":           rttTCP,
		"convert.MBps":                   mbps(rp.updateBytes, rp.conv),
		"vmem.apply_MBps":                mbps(rp.updateBytes, rp.apply),
	}, nil
}

// ratio is a/b, and 0 where the workload gave the layer nothing to do.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mbps(bytes int, d time.Duration) float64 {
	return ratio(float64(bytes)/1e6, d.Seconds())
}

// echoRTT sends frame from a and has b echo it back, for the budget and at
// least 20 times, and returns the median round trip in µs.
func echoRTT(a, b transport.Conn, frame []byte, budget time.Duration) (float64, error) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			f, err := b.RecvFrame()
			if err != nil {
				return
			}
			if b.SendFrame(f) != nil {
				return
			}
		}
	}()
	defer func() {
		a.Close()
		b.Close()
		wg.Wait()
	}()
	var rtts []float64
	for start := time.Now(); len(rtts) < 20 || time.Since(start) < budget; {
		t := time.Now()
		if err := a.SendFrame(frame); err != nil {
			return 0, err
		}
		if _, err := a.RecvFrame(); err != nil {
			return 0, err
		}
		rtts = append(rtts, float64(time.Since(t).Nanoseconds())/1e3)
	}
	sort.Float64s(rtts)
	return rtts[len(rtts)/2], nil
}

func tcpRTT(frame []byte, budget time.Duration) (float64, error) {
	l, err := transport.TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	type accepted struct {
		c   transport.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := l.Accept()
		ch <- accepted{c, err}
	}()
	a, err := transport.TCP{}.Dial(l.Addr())
	if err != nil {
		l.Close()
		<-ch
		return 0, err
	}
	srv := <-ch
	if srv.err != nil {
		a.Close()
		return 0, srv.err
	}
	return echoRTT(a, srv.c, frame, budget)
}
