// Command dsmrun executes one DSM experiment end-to-end in a single
// process — the paper's three-thread configuration (one thread at the home
// node, two on the remote platform) — and prints the Eq. 1 data-sharing
// cost breakdown.
//
// Usage:
//
//	dsmrun -workload matmul -n 138 -pair SL -verify
//	dsmrun -workload lu -n 99 -pair LL -threads 4
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"hetdsm/internal/apps"
	"hetdsm/internal/dir"
	"hetdsm/internal/dsd"
	"hetdsm/internal/ha"
	"hetdsm/internal/stats"
	"hetdsm/internal/telemetry"
	"hetdsm/internal/trace"
	"hetdsm/internal/vmem"
)

// shardOf resolves an entry's owner from a directory stats snapshot.
func shardOf(d *dir.Stats, entry int) int32 {
	for _, m := range d.Map {
		if !m.Lock && int(m.Object) == entry {
			return m.Shard
		}
	}
	return int32(entry % d.Shards)
}

func main() {
	var (
		workload  = flag.String("workload", "matmul", `workload: "matmul", "lu", "jacobi" or "transfer"`)
		n         = flag.Int("n", 99, "matrix dimension")
		pairLabel = flag.String("pair", "SL", `platform pair: "LL", "SS" or "SL"`)
		threads   = flag.Int("threads", 3, "worker thread count")
		verify    = flag.Bool("verify", true, "verify against a sequential run")
		seed      = flag.Int64("seed", 20060814, "input generator seed")
		coalesce  = flag.Bool("coalesce", true, "group consecutive elements into single tags")
		whole     = flag.Float64("whole-array", 0.5, "whole-array transfer threshold (0 disables)")
		traceN    = flag.Int("trace", 0, "print the last N protocol events after the run (0 disables)")
		invalid   = flag.Bool("invalidate", false, "use the invalidate protocol instead of update")
		opTimeout = flag.Duration("op-timeout", 0, "bound each sync-operation attempt; expired attempts sever the connection and retry idempotently (0 disables the deadline plane)")
		statsJSON = flag.Bool("stats-json", false, "dump the Eq. 1 stats and HA counters as JSON on exit")
		metrics   = flag.String("metrics-addr", "", "serve diagnostics HTTP on host:port (/metrics /stats /trace /spans /heat /debug/pprof)")
		traceOut  = flag.String("trace-out", "", "write the protocol event ring as JSONL to this file on exit")
		spanOut   = flag.String("span-out", "", "write release-pipeline spans as JSONL to this file on exit")
		heatTop   = flag.Int("heat", 0, "print the N hottest pages of the page-heat report (0 disables)")
		shards    = flag.Int("shards", 1, "home shard count; >1 runs the multi-home sharded directory")
		migThresh = flag.Uint64("migrate-threshold", 0, "per-entry fault total that triggers heat-driven re-homing (0 disables; needs -shards > 1)")
		ckptDir   = flag.String("wal-dir", "", "directory for coordinated cluster checkpoints")
		ckptEvery = flag.Int("checkpoint-every", 0, "write a cluster checkpoint every N barrier generations (0 disables; needs -wal-dir)")
		restore   = flag.Bool("restore", false, "resume from the cluster checkpoint in -wal-dir (matmul and lu only)")
	)
	flag.Parse()

	pair, ok := apps.PairByLabel(*pairLabel)
	if !ok {
		fmt.Fprintf(os.Stderr, "dsmrun: unknown pair %q\n", *pairLabel)
		os.Exit(2)
	}
	opts := dsd.DefaultOptions()
	opts.Coalesce = *coalesce
	opts.WholeArrayThreshold = *whole
	if *invalid {
		opts.Protocol = dsd.ProtocolInvalidate
	}
	opts.OpTimeout = *opTimeout
	if *opTimeout > 0 {
		// In-process clusters reconnect through the HA dial path when an
		// attempt expires; sticky locks keep the holder's mutexes across
		// the sever-and-replay.
		opts.StickyLocks = true
	}
	kit := telemetry.NewKit(*metrics, *traceOut, *spanOut)
	var tlog *trace.Log
	if *traceN > 0 {
		tlog = trace.NewLog(*traceN)
		kit.SetTraceLog(tlog)
	}
	opts.Trace = kit.TraceLog()
	if opts.Trace == nil {
		opts.Trace = tlog
	}
	opts.Metrics = kit.Registry()
	opts.Spans = kit.Spans()

	res, err := apps.Run(apps.Config{
		Workload:         *workload,
		N:                *n,
		Pair:             pair,
		Threads:          *threads,
		Opts:             opts,
		Verify:           *verify,
		Seed:             *seed,
		Shards:           *shards,
		MigrateThreshold: *migThresh,
		CheckpointDir:    *ckptDir,
		CheckpointEvery:  *ckptEvery,
		Restore:          *restore,
		// Point the diagnostics endpoint at the live cluster: /stats
		// re-reads the breakdowns per request; /heat is a best-effort
		// snapshot of the per-page counters.
		OnCluster: func(home *dsd.Home, threads []*dsd.Thread) {
			statsFn := func() map[string]any {
				var agg stats.Breakdown
				agg.Merge(home.Stats())
				for _, th := range threads {
					agg.Merge(th.Stats())
				}
				return agg.Map()
			}
			heatFn := func() any {
				var heat vmem.HeatReport
				for _, th := range threads {
					heat.Merge(th.Heat())
				}
				return heat
			}
			if err := kit.Serve(statsFn, heatFn); err != nil {
				fmt.Fprintln(os.Stderr, "dsmrun: telemetry:", err)
				os.Exit(1)
			}
		},
		// Sharded runs expose the same live view plus the directory: the
		// shard map, ownership counters and heat leaders ride along under
		// the "dir" key so /stats shows re-homings as they happen.
		OnShards: func(cl *dir.Cluster, threads []*dsd.Thread) {
			statsFn := func() map[string]any {
				var agg stats.Breakdown
				for i := 0; i < cl.Shards(); i++ {
					agg.Merge(cl.Home(i).Stats())
				}
				for _, th := range threads {
					agg.Merge(th.Stats())
				}
				doc := agg.Map()
				doc["dir"] = cl.Stats()
				return doc
			}
			heatFn := func() any {
				var heat vmem.HeatReport
				for _, th := range threads {
					heat.Merge(th.Heat())
				}
				return heat
			}
			if err := kit.Serve(statsFn, heatFn); err != nil {
				fmt.Fprintln(os.Stderr, "dsmrun: telemetry:", err)
				os.Exit(1)
			}
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmrun:", err)
		os.Exit(1)
	}

	fmt.Printf("workload   %s  N=%d  pair=%s (%s home, %s remote)  threads=%d\n",
		*workload, *n, pair.Label, pair.Home, pair.Remote, *threads)
	fmt.Printf("wall time  %v\n", res.Wall)
	if *verify {
		fmt.Printf("verified   %v (matches sequential run exactly)\n", res.Verified)
	}
	fmt.Printf("updates    %d bytes crossed the DSD; %d software page faults\n",
		res.UpdateBytes, res.PageFaults)
	fmt.Println()
	fmt.Println("Cshare breakdown (Eq. 1), cluster-wide:")
	total := res.AggTotal()
	for p := stats.Phase(0); p < stats.NumPhases; p++ {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(res.Agg[p]) / float64(total)
		}
		fmt.Printf("  t_%-7s %12v  %5.1f%%\n", p, res.Agg[p], pct)
	}
	fmt.Printf("  %-9s %12v\n", "Cshare", total)
	fmt.Println()
	if d := res.Dir; d != nil {
		fmt.Printf("sharded directory: %d shards, %d entry re-homings, %d lock moves, %d forwards (%d stale-cache corrections)\n",
			d.Shards, d.Migrations, d.LockMigrations, d.Forwards, d.StaleCacheHits)
		for _, ld := range d.HeatLeaders {
			fmt.Printf("  entry %3d  owner=shard%d  faults=%-6d leader=rank%d\n",
				ld.Entry, shardOf(d, ld.Entry), ld.Faults, ld.Rank)
		}
	}
	fmt.Printf("home-side conversion (the paper's t_conv): %v\n", res.Home[stats.Conv])
	fmt.Println("per-platform release-side work:")
	for name, bd := range res.ByPlatform {
		fmt.Printf("  %-16s index=%v tag=%v pack=%v\n",
			name, bd[stats.Index], bd[stats.Tag], bd[stats.Pack])
	}
	if tlog != nil {
		fmt.Printf("\nlast %d protocol events (%d recorded, %d dropped by the ring):\n",
			tlog.Len(), tlog.Total(), tlog.Dropped())
		if err := tlog.Dump(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "dsmrun:", err)
		}
	}
	if *heatTop > 0 {
		fmt.Printf("\npage heat (top %d of %d active pages, %d faults, %d twins, %d diff bytes):\n",
			*heatTop, len(res.Heat.Pages), res.Heat.TotalFaults, res.Heat.TwinsMade, res.Heat.TotalDiffBytes)
		for _, p := range res.Heat.Hot(*heatTop) {
			suspect := ""
			if p.FalseSharingSuspect {
				suspect = "  FALSE-SHARING?"
			}
			fmt.Printf("  page %4d  faults=%-5d runs=%-6d bytes=%-8d%s\n",
				p.Page, p.Faults, p.DiffRuns, p.DiffBytes, suspect)
		}
	}

	if *statsJSON {
		phases := func(a [stats.NumPhases]time.Duration) map[string]float64 {
			m := make(map[string]float64, stats.NumPhases)
			for p := stats.Phase(0); p < stats.NumPhases; p++ {
				m[p.String()] = a[p].Seconds()
			}
			return m
		}
		byPlat := make(map[string]map[string]float64, len(res.ByPlatform))
		for name, bd := range res.ByPlatform {
			byPlat[name] = phases(bd)
		}
		doc := map[string]any{
			"workload":     *workload,
			"n":            *n,
			"pair":         pair.Label,
			"threads":      *threads,
			"wall_seconds": res.Wall.Seconds(),
			"verified":     res.Verified,
			"update_bytes": res.UpdateBytes,
			"page_faults":  res.PageFaults,
			"stats": map[string]any{
				"cshare_seconds": res.AggTotal().Seconds(),
				"agg":            phases(res.Agg),
				"home":           phases(res.Home),
				"by_platform":    byPlat,
			},
			// dsmrun is single-process with no standby; the counters are
			// present (and zero) so consumers see one schema across both
			// commands.
			"ha": (&ha.Counters{}).Map(),
			"dir": func() any {
				if res.Dir == nil {
					return nil
				}
				return res.Dir
			}(),
			"heat": map[string]any{
				"total_faults":     res.Heat.TotalFaults,
				"total_diff_bytes": res.Heat.TotalDiffBytes,
				"twins_made":       res.Heat.TwinsMade,
				"hot":              res.Heat.Hot(10),
			},
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintln(os.Stderr, "dsmrun:", err)
			os.Exit(1)
		}
	}
	if err := kit.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "dsmrun: telemetry:", err)
		os.Exit(1)
	}
}
