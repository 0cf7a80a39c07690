package sim

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"hetdsm/internal/check"
	"hetdsm/internal/dsd"
	"hetdsm/internal/flight"
	"hetdsm/internal/ha"
	"hetdsm/internal/platform"
	"hetdsm/internal/telemetry"
	"hetdsm/internal/trace"
	"hetdsm/internal/transport"
	"hetdsm/internal/vclock"
	"hetdsm/internal/wal"
)

// The history recorder must satisfy the dsd hook interface.
var _ dsd.Recorder = (*check.History)(nil)

// Result is the outcome of one simulated run.
type Result struct {
	// Plan is the plan that ran (defaults filled in).
	Plan Plan
	// Violations holds every release-consistency violation the checker
	// found; empty on a correct run.
	Violations []check.Violation
	// Canonical is the deterministic per-rank event trace; byte-identical
	// across runs of the same plan.
	Canonical []byte
	// Events is the recorded history length.
	Events int
	// FaultLog describes each injected fault with its logical timestamp.
	FaultLog []string
	// Reconnects counts thread redials across all ranks.
	Reconnects uint64
	// Corrupted counts negative-mode frame corruptions.
	Corrupted int
	// Spans holds every release-pipeline span the run recorded, already
	// trace-context stitched; dsmsim can export them for dsmtrace.
	Spans []telemetry.Span
	// FlightDump is the formatted black-box flight-recorder dump of the
	// run's protocol events; attached to every violation artifact.
	FlightDump string
	// Err reports an infrastructure failure (the run could not complete);
	// distinct from a validation failure.
	Err error
}

// OK reports whether the run completed and validated clean.
func (r Result) OK() bool { return r.Err == nil && len(r.Violations) == 0 }

// Report renders the result for humans: the reproducer line, the fault
// schedule, and each violation with its minimized trace.
func (r Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan: %s (%d events", r.Plan, r.Events)
	if r.Reconnects > 0 {
		fmt.Fprintf(&b, ", %d reconnects", r.Reconnects)
	}
	if r.Corrupted > 0 {
		fmt.Fprintf(&b, ", %d corrupted frames", r.Corrupted)
	}
	b.WriteString(")\n")
	for _, f := range r.FaultLog {
		fmt.Fprintf(&b, "fault: %s\n", f)
	}
	if r.Err != nil {
		fmt.Fprintf(&b, "run error: %v\n", r.Err)
	}
	for _, v := range r.Violations {
		b.WriteString(v.String())
	}
	if r.OK() {
		b.WriteString("ok: 0 violations\n")
	} else if r.FlightDump != "" {
		b.WriteString(r.FlightDump)
	}
	return b.String()
}

// simBackoff is the fast reconnect policy simulation threads dial with:
// sub-millisecond retries so partition heals and failover promotions are
// picked up promptly, seeded per rank for reproducible jitter.
func simBackoff(seed int64, rank int32) transport.Backoff {
	return transport.Backoff{
		Base:     200 * time.Microsecond,
		Max:      5 * time.Millisecond,
		Factor:   2,
		Jitter:   0.3,
		Attempts: 400,
		Seed:     seed*1000 + int64(rank) + 1,
	}
}

// stallProfile is the slow-peer schedule: seeded per-frame latency plus a
// network-wide full-stall window every 31st frame. Pure timing — the RC
// checker must see a canonical trace byte-identical to the clean run.
func stallProfile(seed int64) transport.DelayProfile {
	return transport.DelayProfile{
		Latency:    200 * time.Microsecond,
		StallEvery: 31,
		StallFor:   2 * time.Millisecond,
		Seed:       seed,
	}
}

// dribbleProfile is the slow-NIC schedule: every frame's latency paid in
// four separate dribbled sleeps, modeling trickled writes.
func dribbleProfile(seed int64) transport.DelayProfile {
	return transport.DelayProfile{
		Latency:       300 * time.Microsecond,
		DribbleChunks: 4,
		Seed:          seed,
	}
}

// Run executes one plan and validates the recorded history. It never
// panics on protocol misbehavior — everything lands in Result.
func Run(plan Plan) Result {
	plan = plan.withDefaults()
	res := Result{Plan: plan}
	if err := plan.Validate(); err != nil {
		res.Err = err
		return res
	}
	homePlat, threadPlats, err := plan.platforms()
	if err != nil {
		res.Err = err
		return res
	}
	gm, err := MixByName(plan.Grammar)
	if err != nil {
		res.Err = err
		return res
	}
	lay := layoutFor(plan, gm)
	if plan.Shards > 1 {
		return runShardedSim(plan, gm, lay, homePlat, threadPlats)
	}

	rng := rand.New(rand.NewSource(plan.Seed))
	clock := vclock.NewVirtual(time.Time{})
	hist := check.NewHistory()
	tlog := trace.NewLog(1 << 16)
	gthv := lay.gthv()

	opts := dsd.DefaultOptions()
	// Whole-array widening off: the workload's blind rank-owned slice
	// writes must never ship a stale copy of a neighbor's cells.
	opts.WholeArrayThreshold = 0
	// Sticky locks: all fault profiles reconnect rather than fail-stop.
	opts.StickyLocks = true
	opts.Trace = tlog
	spans := telemetry.NewSpanLog(1 << 16)
	fr := flight.New(4096)
	opts.Spans = spans
	opts.Flight = fr

	// Fault-injection network stack.
	base := transport.NewInproc()
	var nw transport.Network = base
	var snet *Net
	var corrupt *CorruptNet
	var biased *BiasedNet
	var delayed *transport.Delayed
	switch {
	case plan.Negative:
		// Never corrupt the pointer entry: a mangled pointer fails
		// home-side translation — an infrastructure error, not the silent
		// value divergence the oracle test must prove the checker catches.
		corrupt = NewCorruptNet(base, lay.ptrEntry())
		nw = corrupt
	case plan.Profile == ProfileFlaky:
		nw = transport.NewFlakyRand(base, 0.01, plan.Seed)
	case plan.Profile == ProfilePartition:
		snet = NewNet(base)
		nw = snet
	case plan.Profile == ProfileLostAck:
		biased = NewBiasedNet(base, lostAckKinds(plan.Seed), 0.25, plan.Seed)
		nw = biased
		res.FaultLog = append(res.FaultLog,
			fmt.Sprintf("lostack: dropping {%s} frames with p=0.25", biased.Targets()))
	case plan.Profile == ProfileStall:
		delayed = transport.NewDelayed(base, stallProfile(plan.Seed))
		nw = delayed
		res.FaultLog = append(res.FaultLog,
			"stall: seeded per-frame latency with periodic full-stall windows")
	case plan.Profile == ProfileDribble:
		delayed = transport.NewDelayed(base, dribbleProfile(plan.Seed))
		nw = delayed
		res.FaultLog = append(res.FaultLog,
			"dribble: every frame delivered in dribbled chunks with per-frame latency")
	}

	// Home-side deployment.
	addrs := []string{"home"}
	var primary *dsd.Home
	// curLog is the live write-ahead log under homecrash-restart; faultAt
	// swaps it for the reopened log when the home is restarted.
	var curLog *wal.Log
	var walDir string
	var standby *ha.Standby
	var repl *ha.Replicator
	// haClock drives the standby's failure detector. It advances only
	// after the scheduled kill, so the detector cannot falsely suspect a
	// live primary no matter how starved the host CPU is — early
	// promotion would freeze the backup (it rejects replication after
	// Promote) and silently lose every release between promotion and the
	// kill.
	var haClock *vclock.Virtual
	if plan.Profile == ProfileFailover {
		addrs = []string{"primary", "standby"}
		primary, err = dsd.NewHome(gthv, homePlat, plan.Threads, opts)
		if err != nil {
			res.Err = err
			return res
		}
		pl, err := nw.Listen("primary")
		if err != nil {
			res.Err = err
			return res
		}
		go primary.Serve(pl)
		backup := ha.NewBackup(gthv)
		counters := &ha.Counters{}
		haClock = vclock.NewVirtual(time.Time{})
		standby, err = ha.NewStandby(nw, backup, ha.StandbyConfig{
			PrimaryAddr:       "primary",
			ReplicaAddr:       "replica",
			ServeAddr:         "standby",
			Platform:          homePlat,
			Opts:              opts,
			HeartbeatInterval: 2 * time.Millisecond,
			FailoverTimeout:   12 * time.Millisecond,
			Clock:             haClock,
		})
		if err != nil {
			res.Err = err
			return res
		}
		standby.Counters = counters
		repConn, err := nw.Dial("replica")
		if err != nil {
			res.Err = err
			return res
		}
		repl = ha.NewReplicator(repConn, counters)
		repl.Spans = spans
		repl.Node = "replicator"
		if err := primary.StartReplication(repl); err != nil {
			res.Err = err
			return res
		}
		deadline := time.Now().Add(10 * time.Second)
		for !backup.Ready() {
			if time.Now().After(deadline) {
				res.Err = fmt.Errorf("sim: replication bootstrap never arrived")
				return res
			}
			runtime.Gosched()
		}
		standby.Start()
		defer standby.Stop()
	} else {
		var wlog *wal.Log
		homeOpts := opts
		if plan.Profile == ProfileHomeCrashRestart {
			walDir, err = os.MkdirTemp("", "dsmsim-wal-")
			if err != nil {
				res.Err = err
				return res
			}
			defer os.RemoveAll(walDir)
			wlog, err = wal.Open(wal.Options{Dir: walDir, GThV: gthv, Spans: spans, Node: "wal", Flight: fr})
			if err != nil {
				res.Err = err
				return res
			}
			homeOpts.Epoch = wlog.Epoch()
		}
		primary, err = dsd.NewHome(gthv, homePlat, plan.Threads, homeOpts)
		if err != nil {
			res.Err = err
			return res
		}
		l, err := nw.Listen("home")
		if err != nil {
			res.Err = err
			return res
		}
		go primary.Serve(l)
		if wlog != nil {
			if err := primary.StartReplication(wlog); err != nil {
				res.Err = err
				return res
			}
			curLog = wlog
			defer func() { curLog.Close() }()
		}
	}

	// Worker threads, one goroutine each, recording into the history.
	workers := make([]*worker, plan.Threads)
	for rank := 0; rank < plan.Threads; rank++ {
		topts := opts
		topts.Recorder = hist
		th, err := dsd.DialHABackoff(nw, addrs, threadPlats[rank], int32(rank), gthv, topts, simBackoff(plan.Seed, int32(rank)))
		if err != nil {
			res.Err = fmt.Errorf("sim: rank %d dial: %w", rank, err)
			return res
		}
		workers[rank] = newWorker(rank, th)
	}

	// Fault schedule, stamped on the logical clock (one tick per step).
	var successor *dsd.Home
	epoch := clock.Now()
	logicalNow := func() time.Duration { return clock.Now().Sub(epoch) }
	faultAt := func(step int) error {
		defer clock.Advance(time.Millisecond)
		switch plan.Profile {
		case ProfilePartition:
			if step == plan.Steps/3 || step == (2*plan.Steps)/3 {
				const heal = 2 * time.Millisecond
				snet.Cut("home", heal)
				res.FaultLog = append(res.FaultLog,
					fmt.Sprintf("step %d t=%s: partition home for %s", step, logicalNow(), heal))
			}
		case ProfileFailover:
			if step == plan.Steps/2 {
				primary.Kill()
				repl.Close()
				// Only now let detector time pass: advance the virtual
				// clock until suspicion promotes the standby.
				go func() {
					for {
						select {
						case <-standby.Promoted():
							return
						default:
							haClock.Advance(2 * time.Millisecond)
							runtime.Gosched()
						}
					}
				}()
				res.FaultLog = append(res.FaultLog,
					fmt.Sprintf("step %d t=%s: kill primary home", step, logicalNow()))
			}
		case ProfileHomeCrashRestart:
			if step == plan.Steps/2 {
				// Crash: no quiescence, no goodbye — and Abandon drops any
				// record not yet fsynced, exactly what kill -9 loses.
				primary.Kill()
				curLog.Abandon()
				wlog2, err := wal.Open(wal.Options{Dir: walDir, GThV: gthv, Spans: spans, Node: "wal", Flight: fr})
				if err != nil {
					return fmt.Errorf("sim: wal reopen: %w", err)
				}
				succ, err := wlog2.RecoverHome(homePlat, opts)
				if err != nil {
					return fmt.Errorf("sim: wal recover: %w", err)
				}
				l2, err := nw.Listen("home") // Kill freed the address
				if err != nil {
					return fmt.Errorf("sim: restart listen: %w", err)
				}
				go succ.Serve(l2)
				if err := succ.StartReplication(wlog2); err != nil {
					return fmt.Errorf("sim: restart replication: %w", err)
				}
				curLog = wlog2
				successor = succ
				res.FaultLog = append(res.FaultLog,
					fmt.Sprintf("step %d t=%s: kill home, restart from WAL at epoch %d (%d records replayed)",
						step, logicalNow(), wlog2.Epoch(), wlog2.Replayed()))
			}
		case ProfileHandoff:
			if step == plan.Steps/2 {
				state, err := primary.Detach(10 * time.Second)
				if err != nil {
					return fmt.Errorf("sim: detach: %w", err)
				}
				succ, err := dsd.NewHomeFromImage(gthv, homePlat, opts, state)
				if err != nil {
					return fmt.Errorf("sim: handoff: %w", err)
				}
				l2, err := nw.Listen("home2")
				if err != nil {
					return fmt.Errorf("sim: handoff listen: %w", err)
				}
				go succ.Serve(l2)
				primary.RedirectTo("home2")
				successor = succ
				res.FaultLog = append(res.FaultLog,
					fmt.Sprintf("step %d t=%s: home handoff to home2", step, logicalNow()))
			}
		}
		return nil
	}

	prog := compileProgram(plan, gm, lay, rng)
	d := &driver{workers: workers, faultAt: faultAt}
	runErr := d.run(prog)
	for _, w := range workers {
		w.shutdown()
	}
	if runErr != nil {
		res.Err = runErr
		return res
	}

	// Resolve the home that holds the authoritative final state.
	finalHome := primary
	if plan.Profile == ProfileFailover {
		select {
		case <-standby.Promoted():
		case <-time.After(30 * time.Second):
			res.Err = fmt.Errorf("sim: standby never promoted after kill")
			return res
		}
		promoted, err := standby.Home()
		if err != nil {
			res.Err = fmt.Errorf("sim: failover: %w", err)
			return res
		}
		finalHome = promoted
	} else if successor != nil {
		finalHome = successor
	}
	finalHome.Wait() // every rank joined
	defer finalHome.Close()

	for _, w := range workers {
		res.Reconnects += w.th.Reconnects()
	}
	if corrupt != nil {
		res.Corrupted = corrupt.Corrupted()
	}
	if biased != nil {
		res.FaultLog = append(res.FaultLog, fmt.Sprintf("lostack: dropped %d frames", biased.Drops()))
	}
	if delayed != nil {
		res.FaultLog = append(res.FaultLog,
			fmt.Sprintf("%s: delayed %d frames, %d full stalls", plan.Profile, delayed.Frames(), delayed.Stalls()))
	}

	// Validation: model replay, master comparison, trace cross-check, and
	// conversion round-trips for heterogeneous mixes.
	events := hist.Events()
	res.Events = len(events)
	res.Canonical = check.Canonical(events)
	vs := check.Validate(events, plan.Threads)
	vs = append(vs, compareMaster(finalHome.Globals(), events, lay)...)
	vs = append(vs, check.CrossCheckTrace(events, tlog)...)
	vs = append(vs, roundTripViolations(events, homePlat, threadPlats)...)
	res.Violations = vs
	res.Spans = spans.Spans()
	if len(res.Violations) > 0 {
		fr.Note("checker", flight.KindViolation, -1, uint64(len(res.Violations)), 0)
		fr.Trip(fmt.Sprintf("checker: %d violations (plan %s)", len(res.Violations), plan))
	}
	res.FlightDump = fr.String()
	return res
}

// compareMaster checks the final master state (a single home's globals, or
// the sharded directory's stitched image) cell-by-cell against the model's
// committed state — every integer member of the layout, and every
// committed pointer target when the layout has pointer slots.
func compareMaster(g *dsd.Globals, events []check.Event, lay layout) []check.Violation {
	model := check.FinalState(events)
	var out []check.Violation
	for _, spec := range lay.intSpecs() {
		got, err := g.MustVar(spec.name).Ints(0, spec.n)
		if err != nil {
			out = append(out, check.Violation{Msg: fmt.Sprintf("reading master %s: %v", spec.name, err)})
			continue
		}
		for i, v := range got {
			want := model[spec.name][i] // missing cells default to 0
			if v != want {
				bad := check.Event{Rank: -1, Op: check.OpRead, Sync: -1, Var: spec.name, Index: i, Value: v}
				out = append(out, check.Violation{
					Msg:   fmt.Sprintf("master state diverged: %s[%d] = %d, model expects %d", spec.name, i, v, want),
					Event: bad,
					Trace: check.Minimize(events, lastTouch(events, spec.name, i, bad), 40),
				})
			}
		}
	}
	out = append(out, comparePtrMaster(g, events, lay)...)
	return out
}

// comparePtrMaster resolves the master's committed pointer values through
// its own index table and compares the logical targets against the model's
// committed pointer state — catching a corrupted or untranslated committed
// pointer that no chase ever observed.
func comparePtrMaster(g *dsd.Globals, events []check.Event, lay layout) []check.Violation {
	if lay.ptrSlots == 0 {
		return nil
	}
	model := check.FinalPtrState(events)
	v := g.MustVar("pt")
	var out []check.Violation
	for i := 0; i < lay.ptrSlots; i++ {
		addr, err := v.Ptr(i)
		if err != nil {
			out = append(out, check.Violation{Msg: fmt.Sprintf("reading master pt[%d]: %v", i, err)})
			continue
		}
		got := check.PtrTarget{Var: "", Index: -1}
		if name, idx, ok := g.Resolve(addr); ok {
			got = check.PtrTarget{Var: name, Index: idx}
		}
		want, ok := model["pt"][i]
		if !ok {
			want = check.PtrTarget{Var: "", Index: -1}
		}
		if got != want {
			bad := check.Event{Rank: -1, Op: check.OpPtrRead, Sync: -1, Var: "pt", Index: i,
				Target: got.Var, TargetIndex: got.Index}
			out = append(out, check.Violation{
				Msg:   fmt.Sprintf("master pointer diverged: pt[%d] -> %s, model expects %s", i, got, want),
				Event: bad,
				Trace: check.Minimize(events, lastPtrTouch(events, "pt", i, bad), 40),
			})
		}
	}
	return out
}

// lastTouch finds the last event on the cell so the minimized trace ends
// at the most recent relevant access rather than an unrelated point.
func lastTouch(events []check.Event, name string, index int, fallback check.Event) check.Event {
	for i := len(events) - 1; i >= 0; i-- {
		e := events[i]
		if (e.Op == check.OpRead || e.Op == check.OpWrite) && e.Var == name && e.Index == index {
			return e
		}
	}
	return fallback
}

// lastPtrTouch is lastTouch for pointer cells.
func lastPtrTouch(events []check.Event, name string, index int, fallback check.Event) check.Event {
	for i := len(events) - 1; i >= 0; i-- {
		e := events[i]
		if (e.Op == check.OpPtrRead || e.Op == check.OpPtrWrite) && e.Var == name && e.Index == index {
			return e
		}
	}
	return fallback
}

// roundTripViolations verifies every written value survives a conversion
// round trip between the home's ABI and each distinct thread ABI.
func roundTripViolations(events []check.Event, home *platform.Platform, threads []*platform.Platform) []check.Violation {
	vals := make([]int64, 0, 64)
	seen := make(map[int64]bool)
	for _, e := range events {
		if e.Op == check.OpWrite && !seen[e.Value] {
			seen[e.Value] = true
			vals = append(vals, e.Value)
			if len(vals) == cap(vals) {
				break
			}
		}
	}
	done := make(map[*platform.Platform]bool)
	var out []check.Violation
	for _, tp := range threads {
		if tp.SameABI(home) || done[tp] {
			continue
		}
		done[tp] = true
		if err := check.RoundTripInts(vals, platform.CInt, home, tp); err != nil {
			out = append(out, check.Violation{Msg: fmt.Sprintf("conversion round trip %s<->%s: %v", home, tp, err)})
		}
	}
	return out
}
