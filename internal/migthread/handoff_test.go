package migthread

import (
	"sync"
	"testing"
	"time"

	"hetdsm/internal/dsd"
	"hetdsm/internal/platform"
	"hetdsm/internal/tag"
	"hetdsm/internal/transport"
)

// TestMasterMigrationScenario plays out the paper's full §3.1 story: the
// home node AND the computing thread both abandon the original (x86)
// machine for the SPARC machine, mid-computation.
//
//  1. The home hands off: detach at a quiescent point, successor built on
//     SPARC from the portable handoff state, threads redirected.
//  2. The worker thread then migrates into the SPARC node's skeleton slot.
//     Its fresh replica re-registers at the new home (via a redirect from
//     the old address) and is seeded with the full current state.
//
// The computation finishes on hardware the run never started on, exactly.
func TestMasterMigrationScenario(t *testing.T) {
	nw := transport.NewInproc()
	gthv := testGThV()
	opts := dsd.DefaultOptions()

	home1, err := dsd.NewHome(gthv, platform.LinuxX86, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	l1, err := nw.Listen("home")
	if err != nil {
		t.Fatal(err)
	}
	go home1.Serve(l1)
	defer home1.Close()

	n1 := NewNode("x86-box", platform.LinuxX86, nw, "home", gthv, opts)
	n2 := NewNode("sparc-box", platform.SolarisSPARC, nw, "home", gthv, opts)
	if err := n1.ListenMigrations("x86-mig"); err != nil {
		t.Fatal(err)
	}
	if err := n2.ListenMigrations("sparc-mig"); err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	defer n2.Close()

	// The workload checkpoints progress into the shared array under the
	// lock every few steps, so both phases of the move are exercised
	// against live traffic.
	const total = 400000
	mkWork := func() *publishingSum { return &publishingSum{Total: total, Chunk: 2000} }

	var handoffOnce, migrateOnce sync.Once
	var home2 *dsd.Home
	var home2Mu sync.Mutex
	w := mkWork()
	w.hook = func(pc int64) {
		if pc == 20 {
			handoffOnce.Do(func() {
				// Home handoff runs concurrently with the thread; the
				// Detach quiesce wait tolerates in-flight critical
				// sections.
				go func() {
					state, err := home1.Detach(30 * time.Second)
					if err != nil {
						t.Errorf("detach: %v", err)
						return
					}
					h2, err := dsd.NewHomeFromImage(gthv, platform.SolarisSPARC, opts, state)
					if err != nil {
						t.Errorf("handoff: %v", err)
						return
					}
					l2, err := nw.Listen("home2")
					if err != nil {
						t.Errorf("listen: %v", err)
						return
					}
					go h2.Serve(l2)
					home1.RedirectTo("home2")
					home2Mu.Lock()
					home2 = h2
					home2Mu.Unlock()
				}()
			})
		}
		if pc == 80 {
			migrateOnce.Do(func() {
				if err := n1.RequestMigration(0, n2.MigrationAddr()); err != nil {
					t.Errorf("migration request: %v", err)
				}
			})
		}
	}
	if _, err := n2.StartSkeleton(0, mkWork()); err != nil {
		t.Fatal(err)
	}
	if _, err := n1.StartThread(0, w, RoleLocal); err != nil {
		t.Fatal(err)
	}
	if err := n1.WaitAll(); err != nil {
		t.Fatal(err)
	}
	if err := n2.WaitAll(); err != nil {
		t.Fatal(err)
	}

	home2Mu.Lock()
	h2 := home2
	home2Mu.Unlock()
	if h2 == nil {
		t.Fatal("handoff never completed")
	}
	defer h2.Close()
	h2.Wait()

	got, err := h2.Globals().MustVar("sum").Int(0)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(total) * (total + 1) / 2; got != want {
		t.Errorf("result after full move = %d, want %d", got, want)
	}
	if len(n1.Migrations()) != 1 {
		t.Errorf("migrations = %d, want 1", len(n1.Migrations()))
	}
	r2, _ := n2.Role(0)
	if r2 != RoleDone {
		t.Errorf("sparc slot role = %v, want done", r2)
	}
}

// publishingSum is sumWork that also publishes its running accumulator
// under the lock every step, generating DSD traffic throughout the move.
type publishingSum struct {
	Total int64
	Chunk int64
	hook  func(pc int64)
}

func (w *publishingSum) FrameType() tag.Struct {
	return tag.Struct{Name: "frame", Fields: []tag.Field{
		{Name: "i", T: tag.Scalar{T: platform.CLongLong}},
		{Name: "acc", T: tag.Scalar{T: platform.CLongLong}},
	}}
}

func (w *publishingSum) Init(ctx *Ctx) error {
	if err := ctx.Frame().SetInt("i", 1); err != nil {
		return err
	}
	return ctx.Frame().SetInt("acc", 0)
}

func (w *publishingSum) Step(ctx *Ctx) (bool, error) {
	f := ctx.Frame()
	i, err := f.Int("i")
	if err != nil {
		return false, err
	}
	acc, err := f.Int("acc")
	if err != nil {
		return false, err
	}
	for k := int64(0); k < w.Chunk && i <= w.Total; k++ {
		acc += i
		i++
	}
	if err := f.SetInt("i", i); err != nil {
		return false, err
	}
	if err := f.SetInt("acc", acc); err != nil {
		return false, err
	}
	// Publish progress under the distributed lock: live traffic through
	// both the handoff and the migration.
	if err := ctx.T.Lock(0); err != nil {
		return false, err
	}
	if err := ctx.T.Globals().MustVar("sum").SetInt(0, acc); err != nil {
		return false, err
	}
	if err := ctx.T.Unlock(0); err != nil {
		return false, err
	}
	if w.hook != nil {
		w.hook(ctx.PC())
	}
	return i > w.Total, nil
}
