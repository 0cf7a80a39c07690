package hetdsm

import (
	"os/exec"
	"strings"
	"testing"
	"time"

	"hetdsm/internal/dsd"
	"hetdsm/internal/telemetry"
)

// TestTelemetryOffByDefault guards the disabled-path contract end to
// end: the default options carry no telemetry sinks, and the nil
// handles a disabled node holds are free — no allocations on the DSD
// hot path when nobody asked for -metrics-addr.
func TestTelemetryOffByDefault(t *testing.T) {
	opts := dsd.DefaultOptions()
	if opts.Metrics != nil {
		t.Error("DefaultOptions().Metrics must be nil")
	}
	if opts.Events != nil {
		t.Error("DefaultOptions().Events must be nil")
	}
	if kit := telemetry.NewKit("", "", "", nil); kit != nil {
		t.Error("NewKit with no outputs must return the disabled (nil) kit")
	}
	var disabled *telemetry.Kit
	reg := disabled.Registry()
	c := reg.Counter("dsm_locks_total", "")
	h := reg.Histogram("dsm_lock_acquire_seconds", "")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		h.Observe(0.001)
		opts.Events.Span("n", telemetry.StageShip, 0, 1, 0, 0, time.Time{}, time.Millisecond, 0)
	})
	if allocs != 0 {
		t.Errorf("disabled telemetry allocated %v per operation set, want 0", allocs)
	}
}

// TestExamplesRun builds and executes every example program and checks its
// success marker, guarding the documented entry points against rot. Skipped
// under -short (each example is a full `go run` compile + execute).
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples take a few seconds each")
	}
	cases := []struct {
		dir  string
		args []string
		want []string
	}{
		{"./examples/quickstart", nil, []string{
			"final counter: 16 (want 16",
		}},
		{"./examples/matmul", []string{"-n", "48", "-pair", "SL"}, []string{
			"result verified against sequential run: true",
			"heterogeneous pair",
		}},
		{"./examples/lu", []string{"-n", "32", "-pair", "SL"}, []string{
			"bit-identical to the sequential factorization: true",
		}},
		{"./examples/migration", nil, []string{
			"exact across the x86 -> SPARC move: true",
			"roles after migration: x86-box slot=stub, sparc-box slot=done",
		}},
		{"./examples/checkpoint", nil, []string{
			"bit-identical: true",
		}},
		{"./examples/fileio", nil, []string{
			"streams survived the move intact: true",
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(strings.TrimPrefix(c.dir, "./examples/"), func(t *testing.T) {
			t.Parallel()
			args := append([]string{"run", c.dir}, c.args...)
			cmd := exec.Command("go", args...)
			done := make(chan struct{})
			var out []byte
			var err error
			go func() {
				out, err = cmd.CombinedOutput()
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(120 * time.Second):
				_ = cmd.Process.Kill()
				t.Fatalf("%s timed out", c.dir)
			}
			if err != nil {
				t.Fatalf("%s failed: %v\n%s", c.dir, err, out)
			}
			for _, want := range c.want {
				if !strings.Contains(string(out), want) {
					t.Errorf("%s output missing %q:\n%s", c.dir, want, out)
				}
			}
		})
	}
}
