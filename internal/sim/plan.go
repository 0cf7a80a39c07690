// Package sim is the deterministic cluster simulator: it runs a complete
// DSM deployment — home, worker threads on heterogeneous virtual platforms,
// and an in-memory transport — under a seeded plan that composes a workload
// with a fault schedule (connection kills, transient partitions, home
// failover via internal/ha, live home handoff). Every thread's operations
// are recorded through internal/check and validated against its
// release-consistency model, so a run either reports zero violations or
// prints a replayable seed with a minimized event trace.
//
// Determinism is by construction, not by luck: the workload grammar
// compiles the plan's seed into a complete instruction schedule before any
// thread runs (fault injection never consumes the plan's rng stream),
// critical sections are globally serialized (concurrent only across
// distinct locks over disjoint data), and barrier phases write rank-owned
// slices — so the values every thread reads and writes are a pure function
// of the seed, and the canonical per-rank event trace is byte-identical
// across runs of the same plan even when fault timing varies.
package sim

import (
	"fmt"

	"hetdsm/internal/platform"
)

// Profile names a fault schedule.
type Profile string

// The fault profiles dsmsim explores.
const (
	// ProfileClean runs without faults.
	ProfileClean Profile = "clean"
	// ProfileFlaky kills connections at seeded-random frame operations;
	// threads ride sticky locks + sequence replay through the failures.
	ProfileFlaky Profile = "flaky"
	// ProfilePartition makes the home unreachable for short windows,
	// severing every client connection; threads reconnect with backoff.
	ProfilePartition Profile = "partition"
	// ProfileFailover kills the primary home mid-run; a hot standby
	// (internal/ha) detects the death and promotes its replicated backup.
	ProfileFailover Profile = "failover"
	// ProfileHandoff detaches the home at a quiesced point and migrates
	// its state to a successor, redirecting every thread.
	ProfileHandoff Profile = "handoff"
	// ProfileLostAck drops frames of specific wire kinds — grants, barrier
	// releases, acks — chosen by the seed, stressing exactly the
	// request/ack races uniform random drops rarely hit.
	ProfileLostAck Profile = "lostack"
	// ProfileHomeCrashRestart kills the home mid-run with no standby; the
	// same process restarts it from its write-ahead log and every thread
	// reconnects and replays idempotently.
	ProfileHomeCrashRestart Profile = "homecrash-restart"
	// ProfileStall slows every connection with seeded per-frame latency and
	// periodic full-stall windows (transport.Faults) — the slow-peer fault
	// family: frames arrive exactly once, in order and unchanged, only
	// late. Committed state must therefore be byte-identical to the clean
	// run; the profile proves timing faults cannot leak into values.
	ProfileStall Profile = "stall"
	// ProfileDribble delivers every frame in dribbled chunks with per-frame
	// latency — the slow-NIC/short-write shape of the stall family.
	ProfileDribble Profile = "dribble"
	// ProfileWedge freezes every rank's established connection mid-run
	// while fresh dials pass (a wedged socket, not a dead host), with the
	// deadline plane armed: each rank's next attempt expires, severs its
	// frozen conn, redials and replays. Like the stall family it moves
	// only timing, never values.
	ProfileWedge Profile = "wedge"
)

// Profiles returns every fault profile, in sweep order.
func Profiles() []Profile {
	return []Profile{ProfileClean, ProfileFlaky, ProfilePartition, ProfileFailover,
		ProfileHandoff, ProfileLostAck, ProfileHomeCrashRestart,
		ProfileStall, ProfileDribble, ProfileWedge}
}

// ValidProfile reports whether p names a known profile.
func ValidProfile(p Profile) bool {
	for _, q := range Profiles() {
		if p == q {
			return true
		}
	}
	return false
}

// Mixes returns the standard platform mixes: homogeneous little-endian,
// homogeneous big-endian, and the heterogeneous home/thread splits.
func Mixes() []string {
	return []string{"LL", "SS", "SL", "LS", "Lsl", "Sls"}
}

// Plan is one fully-specified simulation run. Two runs of an identical
// plan produce byte-identical canonical event traces.
type Plan struct {
	// Seed drives the workload schedule and all randomized fault timing.
	Seed int64
	// Mix encodes the platform assignment: the first letter is the home's
	// platform, the rest cycle across thread ranks (L = linux-x86,
	// S = solaris-sparc, l = linux-x86-64, s = solaris-sparc64).
	// "SL" is a big-endian home serving little-endian threads.
	Mix string
	// Profile selects the fault schedule.
	Profile Profile
	// Threads is the worker thread count (default 3).
	Threads int
	// Steps is the number of driver steps (default 25).
	Steps int
	// Grammar names the workload grammar mix — a builtin ("classic",
	// "nested", "pointer", "producer", "hotcold", "chaos") or a literal
	// weighted spec like "cs:3,nested:2". Empty means "classic", the
	// pre-grammar schedule reproduced draw-for-draw.
	Grammar string
	// Locks overrides the grammar's lock-protected array count (0 = the
	// mix's default; valid range 2..maxLocks).
	Locks int
	// Negative injects a deliberate wire corruption into one unlock's
	// update payload; the run is then expected to FAIL validation. dsmsim
	// uses it to test the oracle itself.
	Negative bool
}

// NewPlan returns the default-shaped plan for a seed, profile and mix.
func NewPlan(seed int64, profile Profile, mix string) Plan {
	return Plan{Seed: seed, Mix: mix, Profile: profile, Threads: 3, Steps: 25}
}

// withDefaults fills unset knobs.
func (p Plan) withDefaults() Plan {
	if p.Mix == "" {
		p.Mix = "LL"
	}
	if p.Profile == "" {
		p.Profile = ProfileClean
	}
	if p.Threads <= 0 {
		p.Threads = 3
	}
	if p.Steps <= 0 {
		p.Steps = 25
	}
	if p.Grammar == "" {
		p.Grammar = "classic"
	}
	return p
}

// Workload-size ceilings: generous for real sweeps, tight enough that a
// fuzzer-shaped plan cannot ask for an absurd deployment.
const (
	maxThreads = 16
	maxSteps   = 10000
)

// Validate reports the first problem that would make the plan fail mid-run
// — an unknown profile or grammar, zero-weight mixes, negative mode on a
// faulty profile — so
// callers can reject bad flag combinations up front with one actionable
// message.
func (p Plan) Validate() error {
	q := p.withDefaults()
	if !ValidProfile(q.Profile) {
		return fmt.Errorf("sim: unknown profile %q", q.Profile)
	}
	if _, _, err := q.platforms(); err != nil {
		return err
	}
	if _, err := MixByName(q.Grammar); err != nil {
		return err
	}
	if p.Locks != 0 && (p.Locks < 2 || p.Locks > maxLocks) {
		return fmt.Errorf("sim: -locks %d out of range (want 2..%d, or 0 for the grammar's default)", p.Locks, maxLocks)
	}
	if q.Threads > maxThreads {
		return fmt.Errorf("sim: %d threads exceeds the %d-thread ceiling", q.Threads, maxThreads)
	}
	if q.Steps > maxSteps {
		return fmt.Errorf("sim: %d steps exceeds the %d-step ceiling", q.Steps, maxSteps)
	}
	if q.Negative && q.Profile != ProfileClean {
		return fmt.Errorf("sim: -negative requires the clean profile (got %q): corruption detection is only provable when the corruption is the sole fault", q.Profile)
	}
	return nil
}

// String is the one-line reproducer printed with every violation.
func (p Plan) String() string {
	s := fmt.Sprintf("-seed %d -profile %s -mix %s", p.Seed, p.Profile, p.Mix)
	if p.Grammar != "" && p.Grammar != "classic" {
		s += " -grammar " + p.Grammar
	}
	if p.Locks != 0 {
		s += fmt.Sprintf(" -locks %d", p.Locks)
	}
	if p.Negative {
		s += " -negative"
	}
	return s
}

// platforms resolves the mix into the home platform and one platform per
// thread rank.
func (p Plan) platforms() (*platform.Platform, []*platform.Platform, error) {
	if len(p.Mix) < 2 {
		return nil, nil, fmt.Errorf("sim: mix %q needs at least a home and one thread letter", p.Mix)
	}
	byLetter := func(c byte) *platform.Platform {
		switch c {
		case 'L':
			return platform.LinuxX86
		case 'S':
			return platform.SolarisSPARC
		case 'l':
			return platform.LinuxX8664
		case 's':
			return platform.SolarisSPARC64
		}
		return nil
	}
	home := byLetter(p.Mix[0])
	if home == nil {
		return nil, nil, fmt.Errorf("sim: mix %q: unknown platform letter %q", p.Mix, p.Mix[0])
	}
	rest := p.Mix[1:]
	threads := make([]*platform.Platform, p.Threads)
	for i := range threads {
		pl := byLetter(rest[i%len(rest)])
		if pl == nil {
			return nil, nil, fmt.Errorf("sim: mix %q: unknown platform letter %q", p.Mix, rest[i%len(rest)])
		}
		threads[i] = pl
	}
	return home, threads, nil
}

// Heterogeneous reports whether the plan mixes ABIs (any thread platform
// differing from the home's).
func (p Plan) Heterogeneous() bool {
	home, threads, err := p.withDefaults().platforms()
	if err != nil {
		return false
	}
	for _, t := range threads {
		if !t.SameABI(home) {
			return true
		}
	}
	return false
}
