// Package dsd implements the paper's primary contribution: the Distributed
// Shared Data layer (Section 4), a home-based release-consistency software
// DSM for heterogeneous machines.
//
// One Home node holds the master copy of the single global structure GThV
// and manages distributed mutexes, barriers and joins. Every worker thread
// (local or remote, on any virtual platform) holds a replica of GThV in its
// own platform's layout and synchronizes through the four primitives the
// paper maps onto Pthreads:
//
//	Lock    (MTh_lock)    — acquire a distributed mutex; outstanding
//	                        updates arrive with the grant.
//	Unlock  (MTh_unlock)  — diff the write-protected globals, abstract the
//	                        page diffs to index-table spans, tag them, and
//	                        ship them home with the release.
//	Barrier (MTh_barrier) — flush updates, wait for all threads, receive
//	                        the merged updates of the phase.
//	Join    (MTh_join)    — announce termination to the base thread.
//
// Write detection is page-granular (vmem software MMU), propagation is
// object-granular (indextable spans + CGT-RMR tags), and conversion is
// receiver-makes-right (convert package): homogeneous pairs memcpy,
// heterogeneous pairs transform. Every stage is timed into a
// stats.Breakdown following Eq. 1.
package dsd

import (
	"fmt"
	"time"

	"hetdsm/internal/convert"
	"hetdsm/internal/flight"
	"hetdsm/internal/indextable"
	"hetdsm/internal/platform"
	"hetdsm/internal/telemetry"
	"hetdsm/internal/wire"
)

// DefaultBase is the default GThV virtual base address, the address the
// paper's Table 1 shows on the Linux machine.
const DefaultBase uint64 = 0x40058000

// Options tune the DSD pipeline; zero value is not useful — start from
// DefaultOptions.
type Options struct {
	// Base is the virtual base address for the local GThV segment. It
	// must be aligned to the platform page size.
	Base uint64
	// Coalesce groups consecutive modified array elements into single
	// tags (paper Section 5); disabling it is the per-element ablation.
	Coalesce bool
	// WholeArrayThreshold widens a span to its entire entry when the
	// span already covers at least this fraction of the entry's
	// elements, letting large arrays be transferred and converted "as a
	// whole" (paper Section 4). Zero disables widening.
	WholeArrayThreshold float64
	// Metrics, when non-nil, receives operation histograms (lock-acquire
	// latency, barrier-wait time, release round-trip, diff/frame sizes)
	// and protocol counters. nil disables metric recording entirely; the
	// hot path then takes no timestamps and allocates nothing.
	Metrics *telemetry.Registry
	// Events, when non-nil, is the node's protocol event ring: every
	// protocol moment (hello, grant, unlock, barrier, apply, redirect,
	// fence, epoch adoption, ...) and every per-release pipeline span is
	// recorded into it by one allocation-free call. Each release is
	// stamped with its (rank, seq) request id and every stage — index,
	// tag, pack, ship on the sender; unpack, conv, apply at the home — is
	// recorded against it, so sender-side and home-side rings merge into a
	// cross-node timeline (telemetry.MergeTimeline). Threads additionally
	// mint a TraceID per release and stamp it (plus the ship span's id) on
	// the wire, so the merged timeline is a causal DAG stitched by ids.
	// Fencing trips the ring's black-box dump. nil disables all of it.
	Events *flight.Ring
	// Protocol selects how the home propagates remote modifications. It
	// is a home-side setting: threads adopt the home's protocol at
	// registration.
	Protocol Protocol
	// Recorder, when non-nil, observes this thread's synchronization
	// operations and typed replica accesses for the deterministic test
	// harness (internal/check). It is a thread-side setting; homes ignore
	// it. nil disables recording entirely.
	Recorder Recorder
	// OpTimeout bounds each attempt of a synchronization operation (lock,
	// unlock, barrier, flush, join, fetch): sends and receives carry real
	// socket deadlines, and an expired attempt severs the connection and
	// retries idempotently through the HA redial path; the redial's backoff
	// and dials stay inside the attempt's budget. The budget is the
	// client's alone: no frame carries it and the home never reads it. A
	// home stub blocked on a wedged conn is freed when the client severs
	// the conn.
	// Zero (the default) disables the deadline plane entirely: operations
	// block indefinitely, exactly the pre-deadline behavior.
	OpTimeout time.Duration
	// StickyLocks keeps a disconnected rank's mutexes held instead of
	// force-releasing them. Set it when threads reconnect after transient
	// failures (HA mode): the holder will come back and re-send its
	// unlock, and releasing early would let another thread enter the
	// critical section concurrently. Leave it off for fail-stop threads,
	// where a dead holder must not wedge the lock forever.
	StickyLocks bool
	// Epoch is the home's fencing epoch (home-side). Every frame and
	// replication record carries it; peers that adopted a higher epoch
	// reject the home as stale, and the home fences itself when it sees a
	// higher one. Zero means epoch 1 (a fresh, never-recovered home).
	// Promotion and WAL recovery construct homes with a bumped epoch.
	Epoch uint64
	// CheckpointEvery, with CheckpointSink, writes a coordinated cluster
	// checkpoint every CheckpointEvery-th barrier generation (home-side).
	// Zero disables checkpointing.
	CheckpointEvery int
	// CheckpointSink receives the consistent cut: the home's state image
	// plus the opened barrier generation number. It is called synchronously
	// with the home mutex held, so it must not call back into the home;
	// write the blob and return.
	CheckpointSink func(img *wire.HomeImage, gen uint64)
}

// Protocol is the consistency-propagation scheme.
type Protocol uint8

const (
	// ProtocolUpdate is the paper's scheme: lock grants and barrier
	// releases carry the modified data itself.
	ProtocolUpdate Protocol = iota
	// ProtocolInvalidate is the classic alternative: grants carry only
	// invalidation spans; a thread that actually reads an invalidated
	// element fetches its current value from the home on demand. Threads
	// that never read each other's output skip the data movement
	// entirely.
	ProtocolInvalidate
)

// String returns "update" or "invalidate".
func (p Protocol) String() string {
	if p == ProtocolInvalidate {
		return "invalidate"
	}
	return "update"
}

// DefaultOptions returns the configuration the paper describes: coalescing
// on, whole-array transfers on at half coverage.
func DefaultOptions() Options {
	return Options{
		Base:                DefaultBase,
		Coalesce:            true,
		WholeArrayThreshold: 0.5,
	}
}

func (o Options) validate() error {
	if o.Base == 0 {
		return fmt.Errorf("dsd: options missing Base (use DefaultOptions)")
	}
	if o.WholeArrayThreshold < 0 || o.WholeArrayThreshold > 1 {
		return fmt.Errorf("dsd: WholeArrayThreshold %v outside [0,1]", o.WholeArrayThreshold)
	}
	if o.CheckpointEvery < 0 {
		return fmt.Errorf("dsd: CheckpointEvery %d must not be negative", o.CheckpointEvery)
	}
	if o.OpTimeout < 0 {
		return fmt.Errorf("dsd: OpTimeout %v must not be negative", o.OpTimeout)
	}
	return nil
}

// entryPlans compiles receiver-makes-right once per index-table entry of
// tab: from srcP's representation into tab's, pointer members translated
// into tab's address space by tr. A session builds them where it learns its
// peer's platform and indexes them by update entry from then on.
func entryPlans(tab *indextable.Table, srcP *platform.Platform, tr convert.Translator) ([]convert.Plan, error) {
	plans := make([]convert.Plan, tab.Len())
	opt := convert.Options{Ptr: convert.PtrTranslate, Translator: tr}
	for i := range plans {
		var err error
		if plans[i], err = convert.NewPlan(tab.Platform(), srcP, tab.Entry(i).CType, opt); err != nil {
			return nil, err
		}
	}
	return plans, nil
}
