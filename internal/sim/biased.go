package sim

import "hetdsm/internal/wire"

// lostAckKinds picks the seed's target set. Each set isolates one class of
// home-to-thread reply so a sweep covers every ack race.
func lostAckKinds(seed int64) []wire.Kind {
	sets := [][]wire.Kind{
		{wire.KindLockGrant},
		{wire.KindBarrierRelease},
		{wire.KindUnlockAck, wire.KindJoinAck, wire.KindFlushAck},
		{wire.KindHelloAck},
		{wire.KindLockGrant, wire.KindBarrierRelease},
	}
	i := int(seed % int64(len(sets)))
	if i < 0 {
		i += len(sets)
	}
	return sets[i]
}
