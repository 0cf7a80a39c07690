package sim

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"hetdsm/internal/check"
	"hetdsm/internal/dir"
	"hetdsm/internal/dsd"
	"hetdsm/internal/platform"
	"hetdsm/internal/transport"
	"hetdsm/internal/vclock"
	"hetdsm/internal/wire"
)

// runShardedSim is Run's multi-home branch: the same seeded workload and
// checker, but the deployment is a dir.Cluster of plan.Shards home shards
// behind per-thread proxies. The fault network sits on the proxy-to-shard
// path, where the sharding wire kinds (sync rounds, directory forwards,
// entry transfers) actually flow.
//
// The workload schedule draws from the plan seed exactly as the single-home
// path does, and the migrate profile's fault schedule draws from a separate
// stream — so for a fixed seed the canonical trace is identical across
// profiles, and re-homing an entry is observably value-neutral.
func runShardedSim(plan Plan, gm GrammarMix, lay layout, homePlat *platform.Platform, threadPlats []*platform.Platform) Result {
	res := Result{Plan: plan}
	rng := rand.New(rand.NewSource(plan.Seed))
	frng := rand.New(rand.NewSource(plan.Seed ^ 0x5ca1ab1e))
	clock := vclock.NewVirtual(time.Time{})
	hist := check.NewHistory()
	ring := eventRing(plan)
	gthv := lay.gthv()

	opts := dsd.DefaultOptions()
	opts.WholeArrayThreshold = 0
	opts.StickyLocks = true
	opts.Events = ring

	fplan, faultName := faultsFor(plan, lay)
	nw := transport.NewFaults(transport.NewInproc(), fplan)

	var walDir string
	if plan.Profile == ProfileMigrate {
		// The mid-run shard kill restarts from a write-ahead log.
		d, err := os.MkdirTemp("", "dsmsim-shardwal-")
		if err != nil {
			res.Err = err
			return res
		}
		defer os.RemoveAll(d)
		walDir = d
	}
	cl, err := dir.NewCluster(gthv, homePlat, plan.Threads, dir.Config{
		Shards:  plan.Shards,
		Opts:    opts,
		Network: nw,
		WALDir:  walDir,
		Backoff: transport.Backoff{
			Base: 200 * time.Microsecond, Max: 5 * time.Millisecond,
			Factor: 2, Jitter: 0.3, Attempts: 400, Seed: plan.Seed,
		},
	})
	if err != nil {
		res.Err = err
		return res
	}
	defer cl.Close()

	// Closing the threads ends their proxies, which close their shard
	// conns, which ends the shards' serving goroutines.
	workers := make([]*worker, 0, plan.Threads)
	defer func() {
		for _, w := range workers {
			w.shutdown()
		}
	}()
	for rank := 0; rank < plan.Threads; rank++ {
		topts := opts
		topts.Recorder = hist
		th, err := cl.NewThread(int32(rank), threadPlats[rank], topts)
		if err != nil {
			res.Err = fmt.Errorf("sim: rank %d attach: %w", rank, err)
			return res
		}
		workers = append(workers, newWorker(rank, th))
	}

	entries := cl.Home(0).Table().Len()
	epoch := clock.Now()
	logicalNow := func() time.Duration { return clock.Now().Sub(epoch) }
	faultAt := func(step int) error {
		defer clock.Advance(time.Millisecond)
		if plan.Profile != ProfileMigrate {
			return nil
		}
		if step%2 == 1 {
			entry := frng.Intn(entries)
			dst := int32(frng.Intn(plan.Shards))
			if err := cl.ForceMigrate(entry, dst); err != nil {
				return fmt.Errorf("sim: migrate entry %d to shard %d: %w", entry, dst, err)
			}
			res.FaultLog = append(res.FaultLog,
				fmt.Sprintf("step %d t=%s: migrate entry %d -> shard %d", step, logicalNow(), entry, dst))
		}
		if step == plan.Steps/2 {
			// Land a fresh master copy on the victim, then crash it: the
			// restart must recover the just-migrated entry from the WAL
			// record TransferEntry wrote before publishing the flip.
			victim := frng.Intn(plan.Shards)
			entry := frng.Intn(entries)
			if err := cl.ForceMigrate(entry, int32(victim)); err != nil {
				return fmt.Errorf("sim: migrate entry %d to victim shard %d: %w", entry, victim, err)
			}
			if err := cl.RestartShard(victim); err != nil {
				return fmt.Errorf("sim: restart shard %d: %w", victim, err)
			}
			res.FaultLog = append(res.FaultLog,
				fmt.Sprintf("step %d t=%s: migrate entry %d -> shard %d, kill shard %d, restart from WAL at epoch %d",
					step, logicalNow(), entry, victim, victim, cl.Home(victim).Epoch()))
		}
		return nil
	}

	prog := compileProgram(plan, gm, lay, rng)
	d := &driver{workers: workers, faultAt: faultAt}
	if err := d.run(prog); err != nil {
		res.Err = err
		return res
	}
	cl.Wait()

	for _, w := range workers {
		res.Reconnects += w.th.Reconnects()
	}
	counts := nw.Counts()
	res.Corrupted = int(counts.Mangled)
	if faultName != "" {
		res.FaultLog = append(res.FaultLog, fmt.Sprintf("%s: %s", faultName, counts))
	}

	events := hist.Events()
	res.Events = len(events)
	res.Canonical = check.Canonical(events)
	g, err := cl.MergedGlobals()
	if err != nil {
		res.Err = fmt.Errorf("sim: stitching master image: %w", err)
		return res
	}
	vs := check.Validate(events, plan.Threads)
	vs = append(vs, compareMaster(g, events, lay)...)
	vs = append(vs, check.CrossCheckTrace(events, ring)...)
	vs = append(vs, roundTripViolations(events, homePlat, threadPlats)...)
	res.Violations = vs
	res.attachEvents(ring)
	return res
}

// migrateKinds picks the seed's drop-target set among the sharding wire
// kinds, so a sweep isolates each leg of the proxy/shard protocol: sync
// requests, sync replies, drain acks, and directory forwards.
func migrateKinds(seed int64) []wire.Kind {
	sets := [][]wire.Kind{
		{wire.KindSyncReply},
		{wire.KindSyncAck},
		{wire.KindDirForward},
		{wire.KindSyncReq, wire.KindDirForward},
		{wire.KindSyncReply, wire.KindSyncAck},
	}
	i := int(seed % int64(len(sets)))
	if i < 0 {
		i += len(sets)
	}
	return sets[i]
}
