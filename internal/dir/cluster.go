package dir

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hetdsm/internal/dsd"
	"hetdsm/internal/flight"
	"hetdsm/internal/platform"
	"hetdsm/internal/tag"
	"hetdsm/internal/telemetry"
	"hetdsm/internal/transport"
	"hetdsm/internal/wal"
	"hetdsm/internal/wire"
)

// Config configures a sharded home cluster.
type Config struct {
	// Shards is the number of home shards (at least 1).
	Shards int
	// MigrateThreshold is the per-entry fault total that triggers a
	// re-homing plan; 0 disables heat-driven migration (ForceMigrate still
	// works).
	MigrateThreshold uint64
	// Opts configures every shard home (Base, Protocol, Metrics, Trace,
	// ...). Directory, Shard, HeatSink and Epoch are overridden per shard.
	Opts dsd.Options
	// Network carries proxy-to-shard traffic; nil uses a private in-process
	// network. The simulator passes its fault-injecting network here.
	Network transport.Network
	// Backoff is the proxy-to-shard reconnect policy; a zero Attempts field
	// selects transport.DefaultBackoff. Each (rank, shard) conn derives its
	// own jitter seed from Backoff.Seed, keeping runs deterministic.
	Backoff transport.Backoff
	// WALDir, when non-empty, gives each shard a write-ahead log under
	// WALDir/shard<i>. Required for RestartShard.
	WALDir string
}

// Cluster is a multi-home sharded directory deployment: N dsd.Home shards
// over the same GThV layout, each authoritative for the entries and locks
// the Directory maps to it, plus the heat tracker and migrator that re-home
// hot entries at release boundaries. Threads attach through per-thread
// proxies (NewThread, ServeGateway) and observe a single logical home.
type Cluster struct {
	gthv     tag.Struct
	plat     *platform.Platform
	nthreads int
	cfg      Config

	dir  *Directory
	heat *heatTracker
	nw   transport.Network
	// addrs[i] is shard i's listen address on nw.
	addrs []string

	// migLock orders migrations against proxy acquire gathers: a transfer
	// holds the write side, a gather holds the read side across its sync
	// round, so entries cannot slide between shards mid-gather.
	migLock sync.RWMutex
	// migMu serializes migrations against shard restarts without blocking
	// gathers (which only take migLock.RLock). Never acquired while holding
	// migLock.
	migMu sync.Mutex

	smu   sync.Mutex
	homes []*dsd.Home
	wals  []*wal.Log

	forwards   atomic.Uint64
	staleHits  atomic.Uint64
	syncRounds atomic.Uint64

	m clusterMetrics

	migStop chan struct{}
	migDone chan struct{}
}

// clusterMetrics mirrors the cluster's counters into a telemetry registry
// when one is configured (dsm_dir_* family).
type clusterMetrics struct {
	enabled        bool
	migrations     *telemetry.Counter
	lockMigrations *telemetry.Counter
	forwards       *telemetry.Counter
	staleHits      *telemetry.Counter
	syncRounds     *telemetry.Counter
	release        []*telemetry.Histogram
}

func newClusterMetrics(reg *telemetry.Registry, shards int) clusterMetrics {
	if reg == nil {
		return clusterMetrics{}
	}
	m := clusterMetrics{
		enabled:        true,
		migrations:     reg.Counter("dsm_dir_migrations", "Entry re-homings published by the sharded directory."),
		lockMigrations: reg.Counter("dsm_dir_lock_migrations", "Lock ownership co-location moves."),
		forwards:       reg.Counter("dsm_dir_forwards", "Requests bounced with a directory forward."),
		staleHits:      reg.Counter("dsm_dir_stale_cache_hits", "Proxy ownership-cache entries corrected by forwards."),
		syncRounds:     reg.Counter("dsm_dir_sync_rounds", "Per-shard sync rounds run during acquire gathers."),
	}
	m.release = make([]*telemetry.Histogram, shards)
	for i := range m.release {
		m.release[i] = reg.Histogram(fmt.Sprintf("dsm_dir_shard%d_release_seconds", i),
			"Release round-trip latency against this shard, as seen by proxies.")
	}
	return m
}

// NewCluster builds and starts the shard fleet. Every shard serves the full
// GThV layout on platform p but owns only its directory slice; they all use
// the same base address, so checkpoint images stitch byte-compatibly.
func NewCluster(gthv tag.Struct, p *platform.Platform, nthreads int, cfg Config) (*Cluster, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	cl := &Cluster{
		gthv:     gthv,
		plat:     p,
		nthreads: nthreads,
		cfg:      cfg,
		dir:      NewDirectory(cfg.Shards),
		heat:     newHeatTracker(gthv, cfg.Shards, cfg.MigrateThreshold),
		nw:       cfg.Network,
		m:        newClusterMetrics(cfg.Opts.Metrics, cfg.Shards),
	}
	if cl.nw == nil {
		cl.nw = transport.NewInproc()
	}
	cl.addrs = make([]string, cfg.Shards)
	cl.homes = make([]*dsd.Home, cfg.Shards)
	cl.wals = make([]*wal.Log, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		cl.addrs[i] = fmt.Sprintf("dirshard%d", i)
		opts := cl.shardOpts(i)
		if cfg.WALDir != "" {
			l, err := wal.Open(wal.Options{Dir: cl.walDir(i), GThV: gthv, Metrics: cfg.Opts.Metrics,
				Events: cfg.Opts.Events, Node: fmt.Sprintf("wal%d", i)})
			if err != nil {
				return nil, err
			}
			opts.Epoch = l.Epoch()
			cl.wals[i] = l
		}
		h, err := dsd.NewHome(gthv, p, nthreads, opts)
		if err != nil {
			return nil, err
		}
		if cl.wals[i] != nil {
			if err := h.StartReplication(cl.wals[i]); err != nil {
				return nil, err
			}
		}
		lst, err := cl.nw.Listen(cl.addrs[i])
		if err != nil {
			return nil, err
		}
		go h.Serve(lst)
		cl.homes[i] = h
	}
	return cl, nil
}

// shardOpts derives shard i's home options from the shared template.
func (cl *Cluster) shardOpts(i int) dsd.Options {
	opts := cl.cfg.Opts
	opts.Directory = cl.dir
	opts.Shard = int32(i)
	// Heat is intercepted at the proxies (which see pre-split releases);
	// the shards never aggregate it themselves.
	opts.HeatSink = nil
	return opts
}

func (cl *Cluster) walDir(i int) string {
	return filepath.Join(cl.cfg.WALDir, fmt.Sprintf("shard%d", i))
}

// backoffFor derives the reconnect policy for one proxy-to-shard conn,
// decorrelating jitter across (rank, shard) pairs while staying
// deterministic for a fixed Config.Backoff.Seed.
func (cl *Cluster) backoffFor(rank int32, shard int) transport.Backoff {
	policy := cl.cfg.Backoff
	if policy.Attempts == 0 {
		policy = transport.DefaultBackoff()
	}
	policy.Seed = cl.cfg.Backoff.Seed*1000003 + int64(rank)*31 + int64(shard) + 1
	return policy
}

// Directory returns the authoritative ownership map.
func (cl *Cluster) Directory() *Directory { return cl.dir }

// Shards returns the shard count.
func (cl *Cluster) Shards() int { return len(cl.addrs) }

// Home returns shard i's current home incarnation.
func (cl *Cluster) Home(i int) *dsd.Home {
	cl.smu.Lock()
	defer cl.smu.Unlock()
	return cl.homes[i]
}

func (cl *Cluster) noteForward(stale int) {
	cl.forwards.Add(1)
	cl.staleHits.Add(uint64(stale))
	if cl.m.enabled {
		cl.m.forwards.Inc()
		cl.m.staleHits.Add(uint64(stale))
	}
}

func (cl *Cluster) noteSync() {
	cl.syncRounds.Add(1)
	if cl.m.enabled {
		cl.m.syncRounds.Inc()
	}
}

func (cl *Cluster) observeRelease(shard int, d time.Duration) {
	if cl.m.enabled && shard < len(cl.m.release) {
		cl.m.release[shard].Observe(d.Seconds())
	}
}

// NewThread attaches a worker thread over an in-process pipe through a
// fresh proxy — the sharded counterpart of Home.LocalThread.
func (cl *Cluster) NewThread(rank int32, p *platform.Platform, opts dsd.Options) (*dsd.Thread, error) {
	a, b := transport.Pipe()
	go cl.serveProxy(b)
	return dsd.Connect(a, p, rank, cl.gthv, opts)
}

// ServeGateway accepts thread connections on l, running a proxy per
// connection, until the listener closes. Remote workers dial the gateway
// exactly as they would a single home.
func (cl *Cluster) ServeGateway(l transport.Listener) {
	for {
		c, err := l.Accept()
		if err != nil {
			return
		}
		go cl.serveProxy(c)
	}
}

// Wait blocks until every thread has joined every shard. It re-reads the
// current home incarnation while waiting, so a shard crash-restarted during
// the run (whose original done channel will never close) does not wedge it.
func (cl *Cluster) Wait() {
	for i := range cl.addrs {
		for {
			h := cl.Home(i)
			select {
			case <-h.Done():
			case <-time.After(5 * time.Millisecond):
				continue
			}
			break
		}
	}
}

// Close stops the migrator, shards and WALs.
func (cl *Cluster) Close() {
	cl.StopMigrator()
	cl.smu.Lock()
	homes := append([]*dsd.Home(nil), cl.homes...)
	wals := append([]*wal.Log(nil), cl.wals...)
	cl.smu.Unlock()
	for _, h := range homes {
		h.Close()
	}
	for _, l := range wals {
		if l != nil {
			l.Close()
		}
	}
}

// ForceMigrate re-homes one entry to dst immediately, regardless of heat —
// the chaos profiles and tests drive migration timing with it.
func (cl *Cluster) ForceMigrate(entry int, dst int32) error {
	cl.migMu.Lock()
	defer cl.migMu.Unlock()
	return cl.migrateEntry(entry, dst)
}

// migrateEntry transfers entry to dst under the migration write-lock,
// re-reading the current owner inside it so concurrent plans for the same
// entry serialize cleanly. Caller holds migMu.
func (cl *Cluster) migrateEntry(entry int, dst int32) error {
	if dst < 0 || int(dst) >= cl.Shards() {
		return fmt.Errorf("dir: migrate entry %d to invalid shard %d", entry, dst)
	}
	cl.migLock.Lock()
	defer cl.migLock.Unlock()
	cur, _ := cl.dir.EntryOwner(entry)
	if cur == dst {
		return nil
	}
	src, to := cl.Home(int(cur)), cl.Home(int(dst))
	if err := dsd.TransferEntry(src, to, entry, func() { cl.dir.PublishEntry(entry, dst) }); err != nil {
		return err
	}
	cl.cfg.Opts.Events.Note("dir", flight.KindMigrate, cur, int64(entry), int64(dst), "")
	if cl.m.enabled {
		cl.m.migrations.Inc()
	}
	return nil
}

// PumpMigrations runs one planner pass: every entry whose heat crossed the
// threshold is re-homed to its hottest rank's affinity shard, then each
// tracked lock chases the plurality owner of the entries its critical
// sections touch. Returns how many entry transfers were attempted.
func (cl *Cluster) PumpMigrations() (int, error) {
	cl.migMu.Lock()
	defer cl.migMu.Unlock()
	plans := cl.heat.plan()
	moved := 0
	for _, pl := range plans {
		if err := cl.migrateEntry(pl.entry, pl.dst); err != nil {
			return moved, err
		}
		moved++
	}
	for _, lk := range cl.heat.locksTracked() {
		dst := cl.heat.lockPlanFor(lk, func(entry int) int32 {
			s, _ := cl.dir.EntryOwner(entry)
			return s
		})
		if dst < 0 {
			continue
		}
		cur, _ := cl.dir.LockOwner(lk)
		if cur == dst {
			continue
		}
		if cl.Home(int(cur)).MigrateLockIf(lk, func() { cl.dir.PublishLock(lk, dst) }) && cl.m.enabled {
			cl.m.lockMigrations.Inc()
		}
	}
	return moved, nil
}

// StartMigrator pumps the planner every interval until StopMigrator.
func (cl *Cluster) StartMigrator(interval time.Duration) {
	if cl.migStop != nil {
		return
	}
	cl.migStop = make(chan struct{})
	cl.migDone = make(chan struct{})
	go func(stop, done chan struct{}) {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				cl.PumpMigrations()
			}
		}
	}(cl.migStop, cl.migDone)
}

// StopMigrator stops the background planner, if running.
func (cl *Cluster) StopMigrator() {
	if cl.migStop == nil {
		return
	}
	close(cl.migStop)
	<-cl.migDone
	cl.migStop, cl.migDone = nil, nil
}

// SeverShard cuts every live connection into shard i while keeping it
// listening — a transient network loss around one shard. Proxies reconnect
// and re-register; sibling shards are untouched.
func (cl *Cluster) SeverShard(i int) {
	cl.Home(i).Sever()
}

// RestartShard crash-restarts shard i from its write-ahead log: the old
// incarnation is killed mid-flight, the log replayed, and the recovered
// home serves the same address under a bumped fencing epoch. Only shard i's
// epoch moves — proxies track epochs per shard, so the restart cannot fence
// its healthy siblings. Requires Config.WALDir.
func (cl *Cluster) RestartShard(i int) error {
	cl.migMu.Lock()
	defer cl.migMu.Unlock()
	cl.smu.Lock()
	old, oldLog := cl.homes[i], cl.wals[i]
	cl.smu.Unlock()
	if oldLog == nil {
		return fmt.Errorf("dir: shard %d has no WAL; restart unsupported", i)
	}
	old.Kill()
	oldLog.Abandon()
	l, err := wal.Open(wal.Options{Dir: cl.walDir(i), GThV: cl.gthv, Metrics: cl.cfg.Opts.Metrics,
		Events: cl.cfg.Opts.Events, Node: fmt.Sprintf("wal%d", i)})
	if err != nil {
		return err
	}
	// A crash-restart is a black-box moment: the reopened log noted the new
	// incarnation; dump the ring so the post-mortem shows what preceded it.
	cl.cfg.Opts.Events.Trip(fmt.Sprintf("shard %d crash-restarted into epoch %d (%d records replayed)", i, l.Epoch(), l.Replayed()))
	h, err := l.RecoverHome(cl.plat, cl.shardOpts(i))
	if err != nil {
		return err
	}
	if err := h.StartReplication(l); err != nil {
		return err
	}
	lst, err := cl.nw.Listen(cl.addrs[i])
	if err != nil {
		return err
	}
	go h.Serve(lst)
	cl.smu.Lock()
	cl.homes[i] = h
	cl.wals[i] = l
	cl.smu.Unlock()
	return nil
}

// MergedImage stitches the authoritative master image together: shard 0's
// image as the canvas, every entry owned elsewhere overwritten from its
// owner's image. All shards share a platform and base, so the bytes are
// directly compatible. Meaningful as a consistent whole once the cluster is
// quiescent (after Wait, or between releases).
func (cl *Cluster) MergedImage() ([]byte, string, error) {
	imgs := make([]*wire.HomeImage, cl.Shards())
	var err error
	if imgs[0], err = cl.Home(0).Image(); err != nil {
		return nil, "", err
	}
	table := cl.Home(0).Table()
	out := imgs[0].Image
	for e := 0; e < table.Len(); e++ {
		owner, _ := cl.dir.EntryOwner(e)
		if owner == 0 {
			continue
		}
		if imgs[owner] == nil {
			if imgs[owner], err = cl.Home(int(owner)).Image(); err != nil {
				return nil, "", err
			}
		}
		ent := table.Entry(e)
		copy(out[ent.Offset:ent.Offset+ent.Bytes()], imgs[owner].Image[ent.Offset:])
	}
	return out, imgs[0].Tag, nil
}

// MergedGlobals returns a typed view over the stitched master image — the
// sharded counterpart of Home.Globals for result verification.
func (cl *Cluster) MergedGlobals() (*dsd.Globals, error) {
	img, _, err := cl.MergedImage()
	if err != nil {
		return nil, err
	}
	return dsd.GlobalsFor(cl.gthv, cl.plat, cl.cfg.Opts.Base, img)
}

// Stats is the /stats view of the sharded directory.
type Stats struct {
	Shards         int          `json:"shards"`
	Migrations     uint64       `json:"migrations"`
	LockMigrations uint64       `json:"lock_migrations"`
	Forwards       uint64       `json:"forwards"`
	StaleCacheHits uint64       `json:"stale_cache_hits"`
	SyncRounds     uint64       `json:"sync_rounds"`
	ShardEpochs    []uint64     `json:"shard_epochs"`
	Map            []MapEntry   `json:"map"`
	HeatLeaders    []HeatLeader `json:"heat_leaders"`
}

// Stats snapshots the directory map, migration counters and heat leaders.
func (cl *Cluster) Stats() Stats {
	s := Stats{
		Shards:         cl.Shards(),
		Migrations:     cl.dir.Migrations(),
		LockMigrations: cl.dir.LockMigrations(),
		Forwards:       cl.forwards.Load(),
		StaleCacheHits: cl.staleHits.Load(),
		SyncRounds:     cl.syncRounds.Load(),
		Map:            cl.dir.Snapshot(cl.Home(0).Table().Len()),
		HeatLeaders:    cl.heat.leaders(),
	}
	for i := 0; i < cl.Shards(); i++ {
		s.ShardEpochs = append(s.ShardEpochs, cl.Home(i).Epoch())
	}
	return s
}
