package flight

import (
	"io"
	"os"
	"os/signal"
	"sync"
	"syscall"
)

// The process-wide registry lets a SIGQUIT handler dump every ring a
// binary created without threading references through main.
var (
	regMu    sync.Mutex
	registry []*Ring
)

// Register adds a ring to the process registry dumped by the SIGQUIT
// handler. No-op on nil.
func Register(r *Ring) {
	if r == nil {
		return
	}
	regMu.Lock()
	registry = append(registry, r)
	regMu.Unlock()
}

// DumpAll writes every registered ring's dump to w.
func DumpAll(w io.Writer, reason string) {
	regMu.Lock()
	rings := append([]*Ring(nil), registry...)
	regMu.Unlock()
	for _, r := range rings {
		_ = r.Dump(w, reason)
	}
}

// InstallSIGQUIT arranges for SIGQUIT to dump every registered ring
// to w (stderr when nil) and then deliver the runtime's default SIGQUIT
// behavior (goroutine dump + exit) by re-raising with the handler reset.
// Call once from a binary's main.
func InstallSIGQUIT(w io.Writer) {
	if w == nil {
		w = os.Stderr
	}
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGQUIT)
	go func() {
		<-ch
		DumpAll(w, "SIGQUIT")
		signal.Reset(syscall.SIGQUIT)
		_ = syscall.Kill(syscall.Getpid(), syscall.SIGQUIT)
	}()
}
