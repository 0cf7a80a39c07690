package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hetdsm/internal/dsd"
	"hetdsm/internal/platform"
	"hetdsm/internal/stats"
	"hetdsm/internal/tag"
	"hetdsm/internal/transport"
)

// wireMeter counts the frames and bytes crossing the thread↔home conns.
// It is the transport.FrameObserver the benchmark hands to transport.Meter
// on the thread end of its own pipes, for both directions.
type wireMeter struct {
	frames atomic.Int64
	bytes  atomic.Int64
}

func (m *wireMeter) Observe(v float64) {
	m.frames.Add(1)
	m.bytes.Add(int64(v))
}

// cluster is one home and its threads in this process, wired over
// transport.Pipe with the thread ends metered.
type cluster struct {
	home    *dsd.Home
	threads []*dsd.Thread
	served  sync.WaitGroup
}

// newCluster builds a home on homeP and nthreads threads on threadP and
// completes their handshakes.
func newCluster(gthv tag.Struct, homeP, threadP *platform.Platform, nthreads int, meter *wireMeter) (*cluster, error) {
	opts := dsd.DefaultOptions()
	home, err := dsd.NewHome(gthv, homeP, nthreads, opts)
	if err != nil {
		return nil, err
	}
	c := &cluster{home: home}
	for rank := 0; rank < nthreads; rank++ {
		a, b := transport.Pipe()
		c.served.Add(1)
		go func() {
			defer c.served.Done()
			home.ServeConn(b)
		}()
		th, err := dsd.Connect(transport.Meter(a, meter, meter), threadP, int32(rank), gthv, opts)
		if err != nil {
			a.Close()
			c.close()
			return nil, fmt.Errorf("connect rank %d: %w", rank, err)
		}
		c.threads = append(c.threads, th)
	}
	return c, nil
}

// close severs every conn and waits for the home's serving goroutines.
func (c *cluster) close() {
	for _, th := range c.threads {
		th.Close()
	}
	c.served.Wait()
}

// joinAll sends every thread's join and waits for the home to see them
// all; afterwards home.Globals() is safe to read.
func (c *cluster) joinAll() error {
	for rank, th := range c.threads {
		if err := th.Join(); err != nil {
			return fmt.Errorf("join rank %d: %w", rank, err)
		}
	}
	c.home.Wait()
	return nil
}

// eq1 is the program's own Eq. 1 accounting, read through Thread.Stats()
// and Home.Stats(): per-phase totals of all threads and of the home.
type eq1 struct {
	threads [stats.NumPhases]time.Duration
	home    [stats.NumPhases]time.Duration
}

func (e *eq1) add(o eq1) {
	for p := range e.threads {
		e.threads[p] += o.threads[p]
		e.home[p] += o.home[p]
	}
}

func (e eq1) sub(o eq1) eq1 {
	for p := range e.threads {
		e.threads[p] -= o.threads[p]
		e.home[p] -= o.home[p]
	}
	return e
}

func (c *cluster) eq1() eq1 {
	var e eq1
	e.home = c.home.Stats().Snapshot()
	for _, th := range c.threads {
		s := th.Stats().Snapshot()
		for p := range s {
			e.threads[p] += s[p]
		}
	}
	return e
}
