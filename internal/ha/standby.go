package ha

import (
	"fmt"
	"sync"
	"time"

	"hetdsm/internal/dsd"
	"hetdsm/internal/platform"
	"hetdsm/internal/transport"
	"hetdsm/internal/vclock"
)

// StandbyConfig tunes a Standby.
type StandbyConfig struct {
	// PrimaryAddr is the primary home's serving address (probed).
	PrimaryAddr string
	// ReplicaAddr is where the standby listens for the replication
	// stream.
	ReplicaAddr string
	// ServeAddr is where the promoted home will serve; HA clients list it
	// after PrimaryAddr in their candidate addresses.
	ServeAddr string
	// Platform is the platform the promoted home runs on.
	Platform *platform.Platform
	// Opts configure the promoted home (StickyLocks is forced on).
	Opts dsd.Options
	// HeartbeatInterval is the probe period (default 10ms).
	HeartbeatInterval time.Duration
	// FailoverTimeout is the suspicion timeout (default 4 intervals).
	FailoverTimeout time.Duration
	// Clock, when set, drives the detector's probe timing (tests use a
	// vclock.Virtual); nil means the system clock.
	Clock vclock.Clock
}

// Standby ties the pieces into automatic failover: it serves the
// replication stream into a Backup, probes the primary with a Detector,
// and on suspicion promotes the Backup into a live Home serving on the
// pre-agreed address.
type Standby struct {
	Backup *Backup
	// Counters, when set, is shared observability (also handed to the
	// detector and backup).
	Counters *Counters

	nw  transport.Network
	cfg StandbyConfig
	det *Detector
	rl  transport.Listener

	mu       sync.Mutex
	home     *dsd.Home
	sl       transport.Listener
	err      error
	promoted chan struct{}
}

// NewStandby builds a standby around a Backup and starts its replication
// listener; the primary can attach a Replicator to ReplicaAddr as soon as
// this returns. Call Start to begin probing the primary.
func NewStandby(nw transport.Network, b *Backup, cfg StandbyConfig) (*Standby, error) {
	if cfg.PrimaryAddr == "" || cfg.ReplicaAddr == "" || cfg.ServeAddr == "" {
		return nil, fmt.Errorf("ha: standby needs primary, replica and serve addresses")
	}
	if cfg.Platform == nil {
		return nil, fmt.Errorf("ha: standby needs a platform")
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 10 * time.Millisecond
	}
	if cfg.FailoverTimeout <= cfg.HeartbeatInterval {
		cfg.FailoverTimeout = 4 * cfg.HeartbeatInterval
	}
	rl, err := nw.Listen(cfg.ReplicaAddr)
	if err != nil {
		return nil, err
	}
	s := &Standby{
		Backup:   b,
		nw:       nw,
		cfg:      cfg,
		rl:       rl,
		promoted: make(chan struct{}),
	}
	go b.ServeReplication(rl)
	return s, nil
}

// Start begins probing the primary; on suspicion the backup promotes and
// serves. Counters and Events set on the Standby/Backup before Start are
// honored.
func (s *Standby) Start() {
	s.det = NewDetector(s.nw, s.cfg.PrimaryAddr, s.cfg.HeartbeatInterval, s.cfg.FailoverTimeout)
	s.det.Clock = s.cfg.Clock
	s.det.Counters = s.Counters
	s.det.Events = s.Backup.Events
	s.det.OnSuspect = func(addr string, reason error) { s.failover() }
	s.det.Start()
}

func (s *Standby) failover() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.home != nil || s.err != nil {
		return
	}
	s.Backup.Counters = s.Counters
	home, err := s.Backup.Promote(s.cfg.Platform, s.cfg.Opts)
	if err != nil {
		s.err = err
		close(s.promoted)
		return
	}
	l, err := s.nw.Listen(s.cfg.ServeAddr)
	if err != nil {
		s.err = err
		close(s.promoted)
		return
	}
	s.home = home
	s.sl = l
	go home.Serve(l)
	close(s.promoted)
}

// Promoted is closed once failover has run (successfully or not).
func (s *Standby) Promoted() <-chan struct{} { return s.promoted }

// Home returns the promoted home and any failover error; both are nil/zero
// before Promoted fires.
func (s *Standby) Home() (*dsd.Home, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.home, s.err
}

// Stop halts probing and closes the standby's listeners. A home already
// promoted keeps serving; close it separately.
func (s *Standby) Stop() {
	if s.det != nil {
		s.det.Stop()
	}
	s.rl.Close()
}
