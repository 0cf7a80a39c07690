package sim

import (
	"fmt"

	"hetdsm/internal/dsd"
)

// worker owns one dsd.Thread on its own goroutine (the DSM's
// one-thread-one-address-space rule) and executes compiled instruction
// lists from the driver.
type worker struct {
	rank int
	th   *dsd.Thread
	cmds chan []instr
	done chan error
}

func newWorker(rank int, th *dsd.Thread) *worker {
	w := &worker{rank: rank, th: th, cmds: make(chan []instr), done: make(chan error, 1)}
	go w.loop()
	return w
}

func (w *worker) loop() {
	for ins := range w.cmds {
		w.done <- w.exec(ins)
	}
}

func (w *worker) exec(ins []instr) error {
	g := w.th.Globals()
	for _, in := range ins {
		if err := w.exec1(g, in); err != nil {
			return err
		}
	}
	return nil
}

func (w *worker) exec1(g *dsd.Globals, in instr) error {
	switch in.op {
	case inLock:
		if err := w.th.Lock(in.sync); err != nil {
			return fmt.Errorf("rank %d lock %d: %w", w.rank, in.sync, err)
		}
	case inUnlock:
		if err := w.th.Unlock(in.sync); err != nil {
			return fmt.Errorf("rank %d unlock %d: %w", w.rank, in.sync, err)
		}
	case inBarrier:
		if err := w.th.Barrier(in.sync); err != nil {
			return fmt.Errorf("rank %d barrier %d: %w", w.rank, in.sync, err)
		}
	case inJoin:
		if err := w.th.Join(); err != nil {
			return fmt.Errorf("rank %d join: %w", w.rank, err)
		}
	case inRMW:
		v := g.MustVar(in.v)
		x, err := v.Int(in.idx)
		if err != nil {
			return fmt.Errorf("rank %d read %s[%d]: %w", w.rank, in.v, in.idx, err)
		}
		if err := v.SetInt(in.idx, x+in.val); err != nil {
			return fmt.Errorf("rank %d write %s[%d]: %w", w.rank, in.v, in.idx, err)
		}
	case inWrite:
		if err := g.MustVar(in.v).SetInt(in.idx, in.val); err != nil {
			return fmt.Errorf("rank %d write %s[%d]: %w", w.rank, in.v, in.idx, err)
		}
	case inRead:
		if _, err := g.MustVar(in.v).Int(in.idx); err != nil {
			return fmt.Errorf("rank %d read %s[%d]: %w", w.rank, in.v, in.idx, err)
		}
	case inReadRun:
		if _, err := g.MustVar(in.v).Ints(in.idx, in.n); err != nil {
			return fmt.Errorf("rank %d read %s[%d..%d): %w", w.rank, in.v, in.idx, in.idx+in.n, err)
		}
	case inPtrPub:
		tv := g.MustVar(in.tv)
		addr, err := tv.Addr(in.ti)
		if err != nil {
			return fmt.Errorf("rank %d address of %s[%d]: %w", w.rank, in.tv, in.ti, err)
		}
		if err := g.MustVar(in.v).SetPtr(in.idx, addr); err != nil {
			return fmt.Errorf("rank %d publish %s[%d]: %w", w.rank, in.v, in.idx, err)
		}
	case inPtrChase:
		pv := g.MustVar(in.v)
		addr, err := pv.Ptr(in.idx)
		if err != nil {
			return fmt.Errorf("rank %d load pointer %s[%d]: %w", w.rank, in.v, in.idx, err)
		}
		// Follow the pointer: a null or out-of-segment value (nothing
		// published yet) ends the chase; so does a target that is itself
		// a pointer cell — the workload only ever publishes data cells,
		// but a corrupted frame could leave anything here, and reading a
		// pointer cell through the integer accessor would be a type
		// confusion, not a coherence check.
		name, idx, ok := g.Resolve(addr)
		if !ok {
			return nil
		}
		tv := g.MustVar(name)
		if tv.IsPointer() {
			return nil
		}
		if _, err := tv.Int(idx); err != nil {
			return fmt.Errorf("rank %d chase %s[%d] -> %s[%d]: %w", w.rank, in.v, in.idx, name, idx, err)
		}
	default:
		return fmt.Errorf("rank %d: unknown instruction op %d", w.rank, in.op)
	}
	return nil
}

// send dispatches an instruction list; await collects its result.
func (w *worker) send(ins []instr) { w.cmds <- ins }
func (w *worker) await() error     { return <-w.done }
func (w *worker) shutdown()        { close(w.cmds); w.th.Close() }

// driver executes a compiled program. All randomness was consumed at
// compile time, and batches only run rank programs concurrently when they
// touch disjoint locks and disjoint cells — so every value any thread
// observes is a pure function of the plan's seed, the determinism the
// byte-identical-replay guarantee rests on.
type driver struct {
	workers []*worker
	// faultAt, when set, fires before each numbered step; profiles hook
	// their schedule here. It draws nothing from the plan's rng.
	faultAt func(step int) error
}

// run executes the numbered steps (with fault hooks), then the
// deterministic tail.
func (d *driver) run(prog *program) error {
	for i, st := range prog.steps {
		if d.faultAt != nil {
			if err := d.faultAt(i); err != nil {
				return err
			}
		}
		if err := d.exec(st); err != nil {
			return err
		}
	}
	for _, st := range prog.tail {
		if err := d.exec(st); err != nil {
			return err
		}
	}
	return nil
}

// exec runs one step's batches in order, dispatching each batch's rank
// programs concurrently and awaiting them all.
func (d *driver) exec(st progStep) error {
	for _, b := range st {
		for _, rp := range b {
			d.workers[rp.rank].send(rp.instrs)
		}
		var first error
		for _, rp := range b {
			if err := d.workers[rp.rank].await(); err != nil && first == nil {
				first = err
			}
		}
		if first != nil {
			return first
		}
	}
	return nil
}
