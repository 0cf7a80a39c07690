package dsd

import "fmt"

// TransferEntry moves the master copy of one index-table entry from the
// src shard to the dst shard: the re-homing half of heat-driven migration
// (internal/dir plans WHEN and WHERE; this executes the move).
//
// Both home mutexes are held for the whole transfer, acquired in shard-id
// order so concurrent transfers cannot deadlock. That makes the move
// atomic against every release: an in-flight request either lands before
// the flip (applied at src, its value carried over by the copy) or after
// (src answers KindDirForward, the sender re-routes to dst). publish is
// called while both mutexes are held — it must flip the directory mapping
// and nothing else (no calls back into either home).
//
// The copied bytes are converted receiver-makes-right (Home.importLocked),
// so shards on different virtual platforms exchange master state the same
// way threads do. dst queues a conservative full-entry span for every rank
// it tracks, because src's undelivered pending spans for this entry are
// dropped at materialization from now on; receivers that already had the
// data apply an idempotent overwrite, and a rank that registers with dst
// later is seeded with everything dst owns by then.
func TransferEntry(src, dst *Home, entry int, publish func()) error {
	if src == dst {
		src.mu.Lock()
		publish()
		src.mu.Unlock()
		return nil
	}
	if entry < 0 || entry >= src.table.Len() {
		return fmt.Errorf("dsd: transfer of entry %d out of range [0,%d)", entry, src.table.Len())
	}
	lo, hi := src, dst
	if lo.opts.Shard > hi.opts.Shard {
		lo, hi = hi, lo
	}
	lo.mu.Lock()
	defer lo.mu.Unlock()
	hi.mu.Lock()
	defer hi.mu.Unlock()

	e := src.table.Entry(entry)
	buf := make([]byte, e.Bytes())
	if _, err := src.master.Read(e.Offset, len(buf), buf); err != nil {
		return err
	}
	if err := dst.importLocked(src.table, buf, entry, entry+1); err != nil {
		return err
	}
	// Block until the import's record is durable (fsynced WAL, streamed
	// standby) BEFORE the flip: a recorded-but-unflushed transfer is exactly
	// what a kill -9 loses, and after publish dst holds the only
	// authoritative copy. repFlush re-acquires h.mu, so walk the replicators
	// directly — their Flush methods never call back into either home.
	for _, r := range dst.reps {
		r.Flush()
	}
	publish()
	return nil
}

// MigrateLockIf moves mutex idx's ownership to another shard by flipping
// the directory mapping, but only at a quiescent point: the mutex must be
// free with no waiters. publish runs under h.mu, atomic with acquire's
// ownership check — a racing acquire either wins the mutex first (blocking
// this migration until some later attempt) or arrives after the flip and
// is answered with a forward. Returns whether the flip happened.
//
// Lock state is NOT copied: a free lock has none (no holder, no waiters),
// so the destination shard materializes it fresh on first acquire.
func (h *Home) MigrateLockIf(idx int32, publish func()) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if ls := h.locks[idx]; ls != nil && (ls.held || len(ls.waiters) > 0) {
		return false
	}
	delete(h.locks, idx)
	publish()
	return true
}
