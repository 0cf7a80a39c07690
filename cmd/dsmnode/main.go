// Command dsmnode runs one node of a genuinely distributed cluster over
// TCP: the home node (master copy plus its own worker thread 0), a remote
// worker thread, or a hot standby that takes over if the home dies.
//
// A two-machine session reproducing the paper's deployment:
//
//	# home machine (plays the Solaris box)
//	dsmnode -role home -listen :7000 -platform solaris-sparc \
//	        -workload matmul -n 99 -threads 3
//
//	# worker machine (plays the Linux box), twice:
//	dsmnode -role worker -home host:7000 -rank 1 -platform linux-x86 \
//	        -workload matmul -n 99 -threads 3
//	dsmnode -role worker -home host:7000 -rank 2 -platform linux-x86 \
//	        -workload matmul -n 99 -threads 3
//
// The same session with fault tolerance: a standby replicates the home and
// promotes itself when heartbeats stop, and workers fail over to it.
//
//	# standby machine: replication stream on :7002, serves on :7001 if
//	# the home (probed at host:7000) dies
//	dsmnode -role backup -listen :7001 -replica-listen :7002 -home host:7000 \
//	        -platform linux-x86 -workload matmul -n 99 -threads 3 \
//	        -heartbeat 50ms -failover-timeout 250ms
//
//	# home, streaming every release to the standby; no home-resident
//	# thread, so a home crash loses only the master image (which the
//	# standby holds), never a worker
//	dsmnode -role home -listen :7000 -backup standbyhost:7002 \
//	        -local-thread=false ...
//
//	# workers (ranks 0..threads-1) name the standby as their candidate
//	dsmnode -role worker -rank 0 -home host:7000 -standby standbyhost:7001 ...
//
// A home started with -wal-dir appends every committed release to a
// write-ahead log before acknowledging it; if the directory already holds
// state (the process was kill -9ed), the home restarts from the snapshot
// plus log tail at a bumped fencing epoch and workers replay idempotently.
// Run such a home with -local-thread=false, since a worker living in the
// home process cannot be resurrected:
//
//	dsmnode -role home -listen :7000 -wal-dir /var/tmp/dsm-wal \
//	        -local-thread=false ...
//
// The home prints the Eq. 1 breakdown when every thread has joined;
// -stats-json additionally dumps the breakdown and the HA counters as JSON.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"hetdsm/internal/apps"
	"hetdsm/internal/dsd"
	"hetdsm/internal/flight"
	"hetdsm/internal/ha"
	"hetdsm/internal/platform"
	"hetdsm/internal/stats"
	"hetdsm/internal/tag"
	"hetdsm/internal/telemetry"
	"hetdsm/internal/transport"
	"hetdsm/internal/wal"
)

func main() {
	var (
		role      = flag.String("role", "", `"home", "worker" or "backup"`)
		listen    = flag.String("listen", ":7000", "home: listen address; backup: address served after promotion")
		homeAddr  = flag.String("home", "", "worker/backup: home address host:port")
		rank      = flag.Int("rank", 0, "worker: thread rank")
		platName  = flag.String("platform", "linux-x86", "virtual platform name")
		workload  = flag.String("workload", "matmul", `"matmul", "lu" or "jacobi"`)
		n         = flag.Int("n", 99, "matrix dimension")
		threads   = flag.Int("threads", 3, "total worker thread count")
		seed      = flag.Int64("seed", 20060814, "input generator seed")
		backup    = flag.String("backup", "", "home: standby's replication address host:port")
		localTh   = flag.Bool("local-thread", true, "home: run thread 0 in this process (disable for HA so a home crash loses no worker)")
		standby   = flag.String("standby", "", "worker: standby's serving address, dialed if the home dies")
		replicaL  = flag.String("replica-listen", ":7002", "backup: replication stream listen address")
		heartbeat = flag.Duration("heartbeat", 50*time.Millisecond, "backup: heartbeat probe interval")
		failover  = flag.Duration("failover-timeout", 0, "backup: suspicion timeout (default 4 heartbeats)")
		statsJSON = flag.Bool("stats-json", false, "dump Eq. 1 stats and HA counters as JSON on exit")
		walDir    = flag.String("wal-dir", "", "home: write-ahead log directory; if it holds prior state the home restarts from it")
		opTimeout = flag.Duration("op-timeout", 0, "bound each sync-operation attempt; expired attempts sever the connection and retry idempotently (0 disables the deadline plane)")
		metrics   = flag.String("metrics-addr", "", "serve diagnostics HTTP on host:port (/metrics /stats /trace /spans /heat /debug/pprof)")
		traceOut  = flag.String("trace-out", "", "write the protocol event ring as JSONL to this file on exit")
		spanOut   = flag.String("span-out", "", "write release-pipeline spans as JSONL to this file on exit")
	)
	flag.Parse()

	plat := platform.ByName(*platName)
	if plat == nil {
		fail(fmt.Errorf("unknown platform %q", *platName))
	}
	gthv, body, err := workloadFor(*workload, *n, *threads, *seed)
	if err != nil {
		fail(err)
	}

	opTimeoutFlag = *opTimeout
	// The node's event ring: served and dumped by the kit, and the black
	// box dumped to stderr on fencing, WAL crash-recovery, or SIGQUIT
	// (which then re-raises for the usual core).
	events = flight.New(0)
	events.OnTrip(func(reason string, moments []flight.Event) {
		_ = flight.Format(os.Stderr, reason, moments)
	})
	flight.Register(events)
	flight.InstallSIGQUIT(os.Stderr)
	kit := telemetry.NewKit(*metrics, *traceOut, *spanOut, events)
	switch *role {
	case "home":
		runHome(*listen, *backup, *walDir, plat, gthv, body, *threads, *localTh, *statsJSON, kit)
	case "worker":
		runWorker(*homeAddr, *standby, plat, gthv, body, int32(*rank), *statsJSON, kit)
	case "backup":
		runBackup(*listen, *replicaL, *homeAddr, plat, gthv, *threads, *heartbeat, *failover, *statsJSON, kit)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// events is the process-wide event ring, built in main before any role
// runs.
var events *flight.Ring

// opTimeoutFlag is the -op-timeout value, applied by nodeOptions.
var opTimeoutFlag time.Duration

// nodeOptions is DefaultOptions with the kit's registry and the event ring
// attached.
func nodeOptions(kit *telemetry.Kit) dsd.Options {
	opts := dsd.DefaultOptions()
	opts.Metrics = kit.Registry()
	opts.Events = events
	opts.OpTimeout = opTimeoutFlag
	return opts
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dsmnode:", err)
	os.Exit(1)
}

// workloadFor resolves the GThV shape and per-thread body.
func workloadFor(workload string, n, threads int, seed int64) (tag.Struct, func(*dsd.Thread, int) error, error) {
	switch workload {
	case "matmul":
		return apps.MatMulGThV(n), func(th *dsd.Thread, rank int) error {
			return apps.MatMulThread(th, rank, threads, n, seed, seed+1)
		}, nil
	case "lu":
		return apps.LUGThV(n), func(th *dsd.Thread, rank int) error {
			return apps.LUThread(th, rank, threads, n, seed)
		}, nil
	case "jacobi":
		return apps.JacobiGThV(n), func(th *dsd.Thread, rank int) error {
			return apps.JacobiThread(th, rank, threads, n, 10, seed)
		}, nil
	default:
		return tag.Struct{}, nil, fmt.Errorf("unknown workload %q", workload)
	}
}

// dumpJSON writes one stats document to stdout.
func dumpJSON(doc map[string]any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fail(err)
	}
}

func runHome(listen, backupAddr, walDir string, plat *platform.Platform, gthv tag.Struct, body func(*dsd.Thread, int) error, threads int, localThread, statsJSON bool, kit *telemetry.Kit) {
	opts := nodeOptions(kit)
	counters := &ha.Counters{}
	counters.Register(kit.Registry())
	if backupAddr != "" || walDir != "" {
		// Replicated and durable homes serve HA clients, whose
		// disconnects are transient by design.
		opts.StickyLocks = true
	}
	var wlog *wal.Log
	var home *dsd.Home
	var err error
	if walDir != "" {
		wlog, err = wal.Open(wal.Options{Dir: walDir, GThV: gthv, Metrics: kit.Registry(),
			Events: events, Node: "wal"})
		if err != nil {
			fail(err)
		}
		defer wlog.Close()
	}
	if wlog != nil && wlog.Ready() {
		// Crash restart: replay snapshot + log tail and fence the old
		// incarnation with the bumped epoch.
		home, err = wlog.RecoverHome(plat, opts)
		if err != nil {
			fail(fmt.Errorf("recovering from WAL %s: %w", walDir, err))
		}
		fmt.Printf("home: recovered from WAL %s at epoch %d (%d records replayed)\n",
			walDir, wlog.Epoch(), wlog.Replayed())
	} else {
		if wlog != nil {
			opts.Epoch = wlog.Epoch()
		}
		home, err = dsd.NewHome(gthv, plat, threads, opts)
		if err != nil {
			fail(err)
		}
	}
	if wlog != nil {
		if err := home.StartReplication(wlog); err != nil {
			fail(err)
		}
		fmt.Printf("home: write-ahead logging to %s (epoch %d)\n", walDir, wlog.Epoch())
	}
	var nw transport.TCP
	if backupAddr != "" {
		// Tolerate the standby coming up a moment after us.
		var conn transport.Conn
		deadline := time.Now().Add(10 * time.Second)
		for {
			conn, err = nw.Dial(backupAddr)
			if err == nil || time.Now().After(deadline) {
				break
			}
			time.Sleep(100 * time.Millisecond)
		}
		if err != nil {
			fail(fmt.Errorf("dialing standby %s: %w", backupAddr, err))
		}
		repl := ha.NewReplicator(conn, counters)
		repl.Events = events
		repl.Node = "replicator"
		defer repl.Close()
		if err := home.StartReplication(repl); err != nil {
			fail(err)
		}
		// The stall ladder: replication is synchronous backpressure, so a
		// standby that is alive but not consuming (full socket buffer, dead
		// NAT entry, wedged reader) would wedge every release at the home.
		// The detector watches the replicator's send-progress watermarks; a
		// frozen backlog is declared stalled, the stream is aborted, the
		// in-flight Flush unblocks, and the home degrades to unreplicated —
		// the same fate as a dead standby, reached long before the TCP
		// stack would notice.
		stall := ha.NewStallDetector(repl, backupAddr, time.Second, 10*time.Second)
		stall.Counters = counters
		stall.Events = events
		stall.OnStall = func(addr string, reason error) {
			fmt.Fprintf(os.Stderr, "home: standby %s stalled (%v); degrading to unreplicated\n", addr, reason)
			repl.Abort(reason)
		}
		stall.Start()
		defer stall.Stop()
		fmt.Printf("home: replicating every release to %s\n", backupAddr)
	}
	l, err := nw.Listen(listen)
	if err != nil {
		fail(err)
	}
	fmt.Printf("home: serving on %s (%s), waiting for %d threads\n", l.Addr(), plat, threads)
	go home.Serve(l)

	// By default the home machine contributes thread 0, the paper's
	// non-migrated thread. An HA deployment disables this: a thread living
	// in the home process dies with it, and no standby can resurrect a
	// worker, only the master image.
	threadStats := map[string]any{"home": home.Stats().Map()}
	if localThread {
		th, err := home.LocalThread(0, plat, opts)
		if err != nil {
			fail(err)
		}
		serveDiagnostics(kit, home, th, wlog)
		errCh := make(chan error, 1)
		go func() { errCh <- body(th, 0) }()

		home.Wait()
		if err := <-errCh; err != nil {
			fail(err)
		}
		fmt.Println("thread-0 breakdown: ", th.Stats())
		threadStats["thread0"] = th.Stats().Map()
	} else {
		serveDiagnostics(kit, home, nil, wlog)
		home.Wait()
	}
	fmt.Println("home: all threads joined")
	fmt.Println("home-side breakdown:", home.Stats())
	fmt.Printf("home-side t_conv: %v over %d update bytes\n",
		home.Stats().Phase(stats.Conv), home.Stats().Bytes(stats.Conv))
	if statsJSON {
		threadStats["home"] = home.Stats().Map()
		dumpJSON(map[string]any{
			"role":  "home",
			"stats": threadStats,
			"ha":    counters.Map(),
		})
	}
	if err := kit.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "dsmnode: telemetry:", err)
	}
	home.Close()
}

// serveDiagnostics points the kit's HTTP endpoint at a home and an
// optional co-resident thread. The stats document is live: every request
// re-reads the breakdowns. The heat report is the thread's best-effort
// snapshot (heat counters are written by the thread itself).
func serveDiagnostics(kit *telemetry.Kit, home *dsd.Home, th *dsd.Thread, wlog *wal.Log) {
	statsFn := func() map[string]any {
		doc := map[string]any{"home": home.Stats().Map()}
		if th != nil {
			doc["thread0"] = th.Stats().Map()
			doc["thread0_deadline_exceeded"] = th.DeadlineExceeded()
		}
		doc["epoch"] = home.Epoch()
		doc["fenced"] = home.Fenced()
		applied, released := home.Watermarks()
		doc["watermarks"] = map[string]any{"applied": applied, "released": released}
		if wlog != nil {
			doc["wal"] = wlog.Stats()
		}
		return doc
	}
	var heatFn func() any
	if th != nil {
		heatFn = func() any { return th.Heat() }
	}
	if err := kit.Serve(statsFn, heatFn); err != nil {
		fail(err)
	}
}

func runWorker(homeAddr, standbyAddr string, plat *platform.Platform, gthv tag.Struct, body func(*dsd.Thread, int) error, rank int32, statsJSON bool, kit *telemetry.Kit) {
	if homeAddr == "" {
		fail(fmt.Errorf("worker needs -home host:port"))
	}
	opts := nodeOptions(kit)
	var nw transport.TCP
	var th *dsd.Thread
	var err error
	if standbyAddr != "" {
		th, err = dsd.DialHA(nw, []string{homeAddr, standbyAddr}, plat, rank, gthv, opts)
	} else {
		th, err = dsd.Dial(nw, homeAddr, plat, rank, gthv, opts)
	}
	if err != nil {
		fail(err)
	}
	defer th.Close()
	kit.Registry().GaugeFunc("dsm_ha_reconnects",
		"client connections re-established after a failure",
		func() float64 { return float64(th.Reconnects()) })
	statsFn := func() map[string]any {
		return map[string]any{
			"thread":            th.Stats().Map(),
			"deadline_exceeded": th.DeadlineExceeded(),
			"reconnects":        th.Reconnects(),
		}
	}
	if err := kit.Serve(statsFn, func() any { return th.Heat() }); err != nil {
		fail(err)
	}
	defer func() {
		if err := kit.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "dsmnode: telemetry:", err)
		}
	}()
	fmt.Printf("worker: rank %d (%s) connected to %s\n", rank, plat, homeAddr)
	if err := body(th, int(rank)); err != nil {
		fail(err)
	}
	fmt.Println("worker: done;", th.Stats())
	if n := th.Reconnects(); n > 0 {
		fmt.Printf("worker: survived %d reconnects\n", n)
	}
	if statsJSON {
		counters := &ha.Counters{}
		counters.Reconnects.Add(th.Reconnects())
		dumpJSON(map[string]any{
			"role":  "worker",
			"rank":  rank,
			"stats": map[string]any{"thread": th.Stats().Map()},
			"ha":    counters.Map(),
		})
	}
}

func runBackup(listen, replicaListen, homeAddr string, plat *platform.Platform, gthv tag.Struct, threads int, heartbeat, failover time.Duration, statsJSON bool, kit *telemetry.Kit) {
	if homeAddr == "" {
		fail(fmt.Errorf("backup needs -home host:port to probe"))
	}
	var nw transport.TCP
	counters := &ha.Counters{}
	counters.Register(kit.Registry())
	b := ha.NewBackup(gthv)
	b.Events = events
	standby, err := ha.NewStandby(nw, b, ha.StandbyConfig{
		PrimaryAddr:       homeAddr,
		ReplicaAddr:       replicaListen,
		ServeAddr:         listen,
		Platform:          plat,
		Opts:              nodeOptions(kit),
		HeartbeatInterval: heartbeat,
		FailoverTimeout:   failover,
	})
	if err != nil {
		fail(err)
	}
	standby.Counters = counters
	var promoted atomic.Pointer[dsd.Home]
	statsFn := func() map[string]any {
		if h := promoted.Load(); h != nil {
			return map[string]any{"home": h.Stats().Map()}
		}
		return map[string]any{"home": map[string]any{}}
	}
	if err := kit.Serve(statsFn, nil); err != nil {
		fail(err)
	}
	// The replication listener is live as soon as NewStandby returns, so
	// the home may be started now — but don't arm the failure detector
	// until the home is actually up, or its absence during cluster
	// bring-up reads as a crash and promotes an empty backup.
	fmt.Printf("standby: replicating on %s, waiting for home %s\n", replicaListen, homeAddr)
	for {
		c, err := nw.Dial(homeAddr)
		if err == nil {
			c.Close()
			break
		}
		time.Sleep(heartbeat)
	}
	standby.Start()
	defer standby.Stop()
	fmt.Printf("standby: probing %s every %v, ready to serve on %s\n",
		homeAddr, heartbeat, listen)

	<-standby.Promoted()
	home, err := standby.Home()
	if err != nil {
		fail(fmt.Errorf("failover: %w", err))
	}
	promoted.Store(home)
	fmt.Printf("standby: home suspected dead; promoted, serving on %s\n", listen)
	home.Wait()
	fmt.Println("standby: all threads joined")
	fmt.Println("promoted-home breakdown:", home.Stats())
	if statsJSON {
		dumpJSON(map[string]any{
			"role":  "backup",
			"stats": map[string]any{"home": home.Stats().Map()},
			"ha":    counters.Map(),
		})
	}
	if err := kit.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "dsmnode: telemetry:", err)
	}
	home.Close()
}
