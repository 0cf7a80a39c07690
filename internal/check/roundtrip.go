package check

import (
	"fmt"

	"hetdsm/internal/convert"
	"hetdsm/internal/flight"
	"hetdsm/internal/platform"
)

// RoundTripInts verifies that the signed-integer values survive a full
// receiver-makes-right round trip between the two platforms: encode on a,
// convert a→b, convert b→a, decode, compare. Heterogeneous simulation runs
// call it for every value class their workload stores, so a conversion
// regression surfaces as an explicit violation even when the run's reads
// happen to stay on one platform.
func RoundTripInts(vals []int64, ct platform.CType, a, b *platform.Platform) error {
	if len(vals) == 0 {
		return nil
	}
	aSize := a.CSizeOf(ct)
	src := make([]byte, aSize*len(vals))
	for i, v := range vals {
		a.PutInt(src[i*aSize:], aSize, v)
	}
	onB, _, err := convert.ScalarRun(nil, b, src, a, ct, len(vals), convert.Options{})
	if err != nil {
		return fmt.Errorf("check: %v %s→%s: %w", ct, a, b, err)
	}
	back, _, err := convert.ScalarRun(nil, a, onB, b, ct, len(vals), convert.Options{})
	if err != nil {
		return fmt.Errorf("check: %v %s→%s: %w", ct, b, a, err)
	}
	for i, want := range vals {
		if got := a.Int(back[i*aSize:], aSize); got != want {
			return fmt.Errorf("check: %v value %d corrupted on %s→%s→%s round trip: got %d",
				ct, want, a, b, a, got)
		}
	}
	return nil
}

// CrossCheckTrace reconciles the recorded history against the home-side
// protocol event rings: every acquire in the history must be covered by a
// lock-grant event somewhere in the rings, and every barrier enter by an
// arrival. The comparison is one-sided (rings may hold MORE events —
// idempotent replays after reconnects re-grant and re-arrive) and is
// skipped for any ring that overflowed, since a wrapped ring undercounts.
func CrossCheckTrace(events []Event, rings ...*flight.Ring) []Violation {
	grants, arrivals := 0, 0
	for _, r := range rings {
		if r == nil {
			continue
		}
		if r.Dropped() > 0 {
			return nil // wrapped ring undercounts; nothing sound to assert
		}
		grants += len(r.Filter(flight.KindLockGrant))
		arrivals += len(r.Filter(flight.KindBarrierArrive))
	}
	acquires, enters := 0, 0
	var lastAcquire, lastEnter Event
	for _, e := range events {
		switch e.Op {
		case OpAcquire:
			acquires++
			lastAcquire = e
		case OpBarrierEnter:
			enters++
			lastEnter = e
		}
	}
	var out []Violation
	if acquires > grants {
		out = append(out, Violation{
			Msg:   fmt.Sprintf("history has %d acquires but home traces show only %d lock grants", acquires, grants),
			Event: lastAcquire,
		})
	}
	if enters > arrivals {
		out = append(out, Violation{
			Msg:   fmt.Sprintf("history has %d barrier enters but home traces show only %d arrivals", enters, arrivals),
			Event: lastEnter,
		})
	}
	return out
}
