package sim

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"
	"time"

	"hetdsm/internal/transport"
	"hetdsm/internal/vclock"
)

// recClock is a virtual clock that records every wait asked of it and
// advances past it at once, so a single goroutine can drive delayed sends.
type recClock struct {
	*vclock.Virtual
	waits []time.Duration
}

func (r *recClock) After(d time.Duration) <-chan time.Time {
	r.waits = append(r.waits, d)
	ch := r.Virtual.After(d)
	r.Virtual.Advance(d)
	return ch
}

// faultOps drives a fixed single-goroutine frame sequence through nw — a
// send (leading byte = round mod 40) then its receive, alternating
// direction each round — and returns the op indices at which fired()
// advanced. A conn a fault severed is replaced by a fresh pair.
func faultOps(t *testing.T, nw transport.Network, n int, fired func() int64) []int {
	t.Helper()
	l, err := nw.Listen("golden")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var c, s transport.Conn
	dial := func() {
		if c != nil {
			c.Close()
			s.Close()
		}
		if c, err = nw.Dial("golden"); err != nil {
			t.Fatal(err)
		}
		if s, err = l.Accept(); err != nil {
			t.Fatal(err)
		}
	}
	dial()
	defer func() { c.Close(); s.Close() }()
	var hits []int
	op := 0
	step := func(f func()) bool {
		before := fired()
		f()
		hit := fired() != before
		if hit {
			hits = append(hits, op)
			dial()
		}
		op++
		return hit
	}
	for r := 0; op < n; r++ {
		tx, rx := c, s
		if r%2 == 1 {
			tx, rx = s, c
		}
		frame := []byte{byte(r % 40), byte(op)}
		if step(func() { tx.SendFrame(frame) }) || op >= n {
			continue
		}
		step(func() { rx.RecvFrame() })
	}
	return hits
}

func planFaults(seed int64, prof Profile) transport.FaultPlan {
	fp, _ := faultsFor(NewPlan(seed, prof, "LL"), layout{})
	return fp
}

// TestFaultsGoldenSchedules pins transport.Faults to the schedules the
// wrappers it replaced (Flaky, BiasedNet, Delayed) injected on the same
// frame sequence, recorded from those wrappers before they were deleted.
// Matching draw for draw is what keeps every seed and corpus entry
// replaying the faults it was recorded with.
func TestFaultsGoldenSchedules(t *testing.T) {
	kills := []struct {
		name string
		plan transport.FaultPlan
		ops  int
		want []int
	}{
		{"every-3", transport.FaultPlan{Every: 3}, 24, []int{2, 5, 8, 11, 14, 17, 20, 23}},
		{"p0.3/seed1", transport.FaultPlan{P: 0.3, Seed: 1}, 40, []int{6, 7, 8, 12, 16, 17, 19, 20, 24, 25, 27, 31, 32, 35, 37}},
		{"p0.3/seed2", transport.FaultPlan{P: 0.3, Seed: 2}, 40, []int{0, 1, 2, 3, 7, 8, 9, 17, 21, 29, 33}},
		{"p0.3/seed3", transport.FaultPlan{P: 0.3, Seed: 3}, 40, []int{5, 25, 27, 30, 32, 38}},
		{"p0.3/seed4", transport.FaultPlan{P: 0.3, Seed: 4}, 40, []int{0, 1, 12, 13, 14, 18, 19, 20, 26, 29, 34, 38, 39}},
		{"p0.3/seed5", transport.FaultPlan{P: 0.3, Seed: 5}, 40, []int{8, 10, 13, 15, 18, 20, 30, 32, 35}},
		{"flaky/seed0", planFaults(0, ProfileFlaky), 400, []int{86, 204, 267, 318, 378}},
		{"flaky/seed1", planFaults(1, ProfileFlaky), 400, []int{106, 113, 114, 286, 357, 374}},
		{"flaky/seed2", planFaults(2, ProfileFlaky), 400, []int{182, 351, 382}},
		{"flaky/seed3", planFaults(3, ProfileFlaky), 400, []int{57, 82, 115, 230}},
		{"flaky/seed4", planFaults(4, ProfileFlaky), 400, []int{19, 38, 47, 66, 140, 320, 349}},
		{"lostack/seed0", planFaults(0, ProfileLostAck), 2000, []int{88, 247, 486, 725, 1364, 1843, 1922}},
		{"lostack/seed1", planFaults(1, ProfileLostAck), 2000, []int{498, 577, 656, 975, 1534, 1613}},
		{"lostack/seed2", planFaults(2, ProfileLostAck), 2000, []int{14, 29, 92, 179, 186, 249, 424, 567, 886, 1125, 1204, 1211, 1298, 1361, 1368, 1375, 1446, 1517, 1676, 1763, 1834, 1841, 1912, 1919, 1990}},
		{"lostack/seed3", planFaults(3, ProfileLostAck), 2000, []int{404}},
		{"lostack/seed4", planFaults(4, ProfileLostAck), 2000, []int{8, 17, 486, 495, 734, 803, 1042, 1131, 1360, 1519, 1528, 1597, 1676, 1845}},
	}
	for _, k := range kills {
		nw := transport.NewFaults(transport.NewInproc(), k.plan)
		got := faultOps(t, nw, k.ops, func() int64 { return nw.Counts().Kills })
		if !reflect.DeepEqual(got, k.want) {
			t.Errorf("%s: killed ops %v, want %v", k.name, got, k.want)
		}
	}

	// Timing faults: which sends hit a full-stall window, and every wait
	// asked of the clock (count, sum, FNV-1a of the sequence).
	delays := []struct {
		name   string
		prof   Profile
		seed   int64
		stalls []int
		waits  int
		total  time.Duration
		hash   uint64
	}{
		{"stall/seed1", ProfileStall, 1, []int{60, 121, 182}, 105, 16664819 * time.Nanosecond, 0x97eee14541ad6400},
		{"stall/seed2", ProfileStall, 2, []int{60, 121, 182}, 105, 15191557 * time.Nanosecond, 0x75dd7484cfea981f},
		{"dribble/seed1", ProfileDribble, 1, nil, 400, 14504456 * time.Nanosecond, 0x1742fa1e981195c1},
		{"dribble/seed2", ProfileDribble, 2, nil, 400, 14500080 * time.Nanosecond, 0x64483cffaed82a5d},
	}
	for _, d := range delays {
		clk := &recClock{Virtual: vclock.NewVirtual(time.Time{})}
		start := clk.Now()
		fp := planFaults(d.seed, d.prof)
		fp.Clock = clk
		nw := transport.NewFaults(transport.NewInproc(), fp)
		stalls := faultOps(t, nw, 200, func() int64 { return nw.Counts().Stalls })
		h := fnv.New64a()
		for _, w := range clk.waits {
			fmt.Fprintf(h, "%d,", w)
		}
		total := clk.Now().Sub(start)
		if !reflect.DeepEqual(stalls, d.stalls) || len(clk.waits) != d.waits || total != d.total || h.Sum64() != d.hash {
			t.Errorf("%s: stalls %v, %d waits totalling %s (hash %#x); want %v, %d, %s (%#x)",
				d.name, stalls, len(clk.waits), total, h.Sum64(), d.stalls, d.waits, d.total, d.hash)
		}
	}
}
