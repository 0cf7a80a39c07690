// Package leakcheck verifies that a test tears its goroutines down. The
// deadline plane multiplies background goroutines — stall detectors, stub
// goroutines parked on severed conns — and a leaked one is a wedged
// teardown path the tests would otherwise never notice.
package leakcheck

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// Check snapshots the goroutines alive now and returns a function to defer:
// it fails the test if goroutines born since are still alive at the end of
// a settle window. Usage:
//
//	defer leakcheck.Check(t)()
func Check(t *testing.T) func() {
	t.Helper()
	before := count()
	return func() {
		t.Helper()
		// Exiting goroutines need a moment to unwind; retry before blaming.
		deadline := time.Now().Add(2 * time.Second)
		var after int
		for {
			after = count()
			if after <= before || time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if after > before {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Errorf("leaked %d goroutine(s) (%d -> %d):\n%s", after-before, before, after, buf[:n])
		}
	}
}

// count returns the number of interesting goroutines: everything except
// the runtime's own housekeeping and the testing harness.
func count() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	stacks := strings.Split(string(buf[:n]), "\n\n")
	alive := 0
	for _, s := range stacks {
		if s == "" || benign(s) {
			continue
		}
		alive++
	}
	return alive
}

// benign reports goroutines that are not a test's to clean up.
func benign(stack string) bool {
	for _, marker := range []string{
		"testing.(*T).Run",      // the test runner itself
		"testing.(*M).",         // test main
		"testing.runTests",      //
		"runtime.goexit",        // header-only fragment
		"runtime/trace",         //
		"signal.signal_recv",    // signal handling
		"runtime.gc",            // collector helpers
		"runtime.bgsweep",       //
		"runtime.bgscavenge",    //
		"runtime.forcegchelper", //
		"testing.tRunner.func",  // cleanup hooks
		"runtime.ReadTrace",     //
		"leakcheck.Check",       // ourselves
		"os/signal.loop",        //
	} {
		if strings.Contains(stack, marker) {
			return true
		}
	}
	return false
}
