package sim

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"hetdsm/internal/check"
	"hetdsm/internal/dsd"
	"hetdsm/internal/flight"
	"hetdsm/internal/ha"
	"hetdsm/internal/platform"
	"hetdsm/internal/telemetry"
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
	// Dropped counts the events the run's ring overwrote. The ring is sized
	// to hold a whole run, so it is 0 unless a plan outgrows the ceiling;
	// a nonzero count makes the trace cross-check vacuous.
	Dropped uint64
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

// runLabel tags every goroutine a Run starts (pprof labels are inherited
// by child goroutines) with the run's number from runs, so Run can wait
// until all of them have exited.
const runLabel = "dsmsim-run"

var runs atomic.Int64

// Run executes one plan and validates the recorded history. It never
// panics on protocol misbehavior — everything lands in Result. It returns
// only after every goroutine the run started has exited, so nothing the
// run allocated outlives it and a sweep's memory does not grow with its
// seed count.
func Run(plan Plan) Result {
	var res Result
	label := strconv.FormatInt(runs.Add(1), 10)
	pprof.Do(context.Background(), pprof.Labels(runLabel, label), func(context.Context) { res = run(plan) })
	if err := awaitGoroutines(label, 10*time.Second); err != nil && res.Err == nil {
		res.Err = err
	}
	return res
}

// awaitGoroutines polls the goroutine profile until no goroutine carries
// the run's label, failing once patience runs out.
func awaitGoroutines(label string, patience time.Duration) error {
	mark := []byte(fmt.Sprintf("%q:%q", runLabel, label))
	deadline := time.Now().Add(patience)
	var b bytes.Buffer
	for wait := 50 * time.Microsecond; ; wait = min(2*wait, 10*time.Millisecond) {
		b.Reset()
		pprof.Lookup("goroutine").WriteTo(&b, 1)
		n := bytes.Count(b.Bytes(), mark)
		if n == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("sim: %d goroutine stack(s) outlived the run by %s", n, patience)
		}
		time.Sleep(wait)
	}
}

func run(plan Plan) Result {
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

	rng := rand.New(rand.NewSource(plan.Seed))
	clock := vclock.NewVirtual(time.Time{})
	hist := check.NewHistory()
	ring := eventRing(plan)
	gthv := lay.gthv()

	opts := dsd.DefaultOptions()
	// Whole-array widening off: the workload's blind rank-owned slice
	// writes must never ship a stale copy of a neighbor's cells.
	opts.WholeArrayThreshold = 0
	// Sticky locks: all fault profiles reconnect rather than fail-stop.
	opts.StickyLocks = true
	opts.Events = ring

	fplan, faultName := faultsFor(plan, lay)
	nw := transport.NewFaults(transport.NewInproc(), fplan)
	// Ranks dial through ranksNw. Under wedge it is a layer of its own, so
	// the freeze reaches only the ranks' ends: a home stub parked on a
	// frozen end would keep its rank registered, and the home refuses the
	// rank's redial until that stub exits. Wedge arms the deadline plane:
	// an attempt on a frozen conn gives up after 20 ms.
	ranksNw := nw
	if plan.Profile == ProfileWedge {
		ranksNw = transport.NewFaults(nw, transport.FaultPlan{})
		opts.OpTimeout = 20 * time.Millisecond
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

	// Teardown, whatever path the run leaves by: every worker's thread is
	// closed and every home that served is killed, so no serving goroutine
	// stays parked on a conn and Run's goroutine wait completes.
	var homes []*dsd.Home
	workers := make([]*worker, 0, plan.Threads)
	stop := make(chan struct{})
	defer func() {
		close(stop)
		for _, w := range workers {
			w.shutdown()
		}
		if standby != nil {
			if h, _ := standby.Home(); h != nil {
				homes = append(homes, h)
			}
		}
		for _, h := range homes {
			h.Kill()
		}
	}()
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
		homes = append(homes, primary)
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
		defer standby.Stop()
		standby.Counters = counters
		repConn, err := nw.Dial("replica")
		if err != nil {
			res.Err = err
			return res
		}
		repl = ha.NewReplicator(repConn, counters)
		defer repl.Close()
		repl.Events = ring
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
			wlog, err = wal.Open(wal.Options{Dir: walDir, GThV: gthv, Events: ring, Node: "wal"})
			if err != nil {
				res.Err = err
				return res
			}
			curLog = wlog
			defer func() { curLog.Close() }()
			homeOpts.Epoch = wlog.Epoch()
		}
		primary, err = dsd.NewHome(gthv, homePlat, plan.Threads, homeOpts)
		if err != nil {
			res.Err = err
			return res
		}
		homes = append(homes, primary)
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
		}
	}

	// Worker threads, one goroutine each, recording into the history.
	for rank := 0; rank < plan.Threads; rank++ {
		topts := opts
		topts.Recorder = hist
		th, err := dsd.DialHABackoff(ranksNw, addrs, threadPlats[rank], int32(rank), gthv, topts, simBackoff(plan.Seed, int32(rank)))
		if err != nil {
			res.Err = fmt.Errorf("sim: rank %d dial: %w", rank, err)
			return res
		}
		workers = append(workers, newWorker(rank, th))
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
				nw.Cut("home", heal)
				res.FaultLog = append(res.FaultLog,
					fmt.Sprintf("step %d t=%s: partition home for %s", step, logicalNow(), heal))
			}
		case ProfileWedge:
			if step == plan.Steps/2 {
				ranksNw.Freeze()
				res.FaultLog = append(res.FaultLog,
					fmt.Sprintf("step %d t=%s: freeze every rank's established conn", step, logicalNow()))
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
						case <-stop:
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
				wlog2, err := wal.Open(wal.Options{Dir: walDir, GThV: gthv, Events: ring, Node: "wal"})
				if err != nil {
					return fmt.Errorf("sim: wal reopen: %w", err)
				}
				curLog = wlog2
				succ, err := wlog2.RecoverHome(homePlat, opts)
				if err != nil {
					return fmt.Errorf("sim: wal recover: %w", err)
				}
				homes = append(homes, succ)
				l2, err := nw.Listen("home") // Kill freed the address
				if err != nil {
					return fmt.Errorf("sim: restart listen: %w", err)
				}
				go succ.Serve(l2)
				if err := succ.StartReplication(wlog2); err != nil {
					return fmt.Errorf("sim: restart replication: %w", err)
				}
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
				homes = append(homes, succ)
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
	if err := d.run(prog); err != nil {
		res.Err = err
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

	for _, w := range workers {
		res.Reconnects += w.th.Reconnects()
	}
	counts := nw.Counts()
	res.Corrupted = int(counts.Mangled)
	if faultName != "" {
		res.FaultLog = append(res.FaultLog, fmt.Sprintf("%s: %s", faultName, counts))
	}

	// Validation: model replay, master comparison, trace cross-check, and
	// conversion round-trips for heterogeneous mixes.
	events := hist.Events()
	res.Events = len(events)
	res.Canonical = check.Canonical(events)
	vs := check.Validate(events, plan.Threads)
	vs = append(vs, compareMaster(finalHome.Globals(), events, lay)...)
	vs = append(vs, check.CrossCheckTrace(events, ring)...)
	vs = append(vs, roundTripViolations(events, homePlat, threadPlats)...)
	res.Violations = vs
	res.attachEvents(ring)
	return res
}

// eventRing sizes a run's event ring to hold every moment and span the
// plan records, so the trace cross-check never reads a wrapped ring. A
// default plan (3 threads, 25 steps) records at most ~1 400 events across
// the profiles and grammars, under 20 per thread-step; 64 per thread-step
// leaves headroom, and the ceiling keeps a maximal plan's ring at ~25 MB.
func eventRing(p Plan) *flight.Ring {
	return flight.New(min(1<<18, max(1<<12, 64*p.Steps*p.Threads)))
}

// attachEvents renders the run's ring into the result: the spans for
// dsmtrace, the overwrite count, and the black-box dump, which ends with
// the checker's verdict when the run found violations.
func (r *Result) attachEvents(ring *flight.Ring) {
	r.Spans = telemetry.Spans(ring)
	r.Dropped = ring.Dropped()
	if len(r.Violations) > 0 {
		ring.Note("checker", flight.KindViolation, -1, int64(len(r.Violations)), 0, "")
	}
	r.FlightDump = ring.String()
}

// compareMaster checks the home's final master state cell-by-cell against
// the model's committed state — every integer member of the layout, and every
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
