package sim

import (
	"fmt"
	"time"

	"hetdsm/internal/transport"
	"hetdsm/internal/wire"
)

// faultsFor is the one place a plan picks its wire faults: the run
// network's FaultPlan, and the name its FaultLog summary line carries (""
// for none). Partitions are Cut at run time by the fault schedule.
func faultsFor(plan Plan, lay layout) (transport.FaultPlan, string) {
	fp := transport.FaultPlan{Seed: plan.Seed}
	name := string(plan.Profile)
	var kinds []wire.Kind // lost-reply profiles aim P at these kinds
	switch {
	case plan.Negative:
		fp.Mangle, name = corruptUnlock(lay.ptrEntry()), "negative"
	case plan.Profile == ProfileFlaky:
		fp.P = 0.01
	case plan.Profile == ProfileLostAck:
		fp.P, kinds = 0.25, lostAckKinds(plan.Seed)
	case plan.Profile == ProfileStall: // slow peer
		fp.Latency, fp.StallEvery, fp.StallFor = 200*time.Microsecond, 31, 2*time.Millisecond
	case plan.Profile == ProfileDribble: // slow NIC, trickled writes
		fp.Latency, fp.Dribble = 300*time.Microsecond, 4
	case plan.Profile != ProfilePartition:
		return fp, ""
	}
	for _, k := range kinds {
		fp.Kinds = append(fp.Kinds, byte(k))
	}
	if kinds != nil {
		name = fmt.Sprintf("%s %v", name, kinds)
	}
	return fp, name
}

// corruptUnlock is the negative-test fault, the checker oracle's own test:
// it flips a payload bit in every data-bearing unlock request (the last has
// nothing after it to mend the damage), re-encoded so it still parses. It
// spares skipEntry, the pointer entry, whose translation would just fail.
func corruptUnlock(skipEntry int) func([]byte) []byte {
	return func(frame []byte) []byte {
		m, err := wire.Decode(frame)
		if err != nil || m.Kind != wire.KindUnlockReq {
			return nil
		}
		for i := range m.Updates {
			if u := &m.Updates[i]; int(u.Entry) != skipEntry && len(u.Data) > 0 {
				u.Data[0] ^= 0x01
				out, _ := wire.Encode(m)
				return out
			}
		}
		return nil
	}
}
