package transport

// FrameObserver receives frame sizes in bytes. *telemetry.Histogram
// satisfies it (and its Observe is a safe no-op on a nil pointer), so
// callers can hand histogram handles straight in without this package
// depending on the telemetry layer.
type FrameObserver interface {
	Observe(v float64)
}

// meteredConn wraps a Conn and reports every frame's size.
type meteredConn struct {
	Conn
	sent FrameObserver
	recv FrameObserver
}

// Meter returns a Conn that observes the size of every frame crossing
// c: sent into sent, received into recv. A nil observer disables that
// direction. The wrapper adds one interface call per frame and nothing
// else — ordering, blocking and close semantics are c's.
func Meter(c Conn, sent, recv FrameObserver) Conn {
	if sent == nil && recv == nil {
		return c
	}
	return &meteredConn{Conn: c, sent: sent, recv: recv}
}

func (m *meteredConn) SendFrame(frame []byte) error {
	if m.sent != nil {
		m.sent.Observe(float64(len(frame)))
	}
	return m.Conn.SendFrame(frame)
}

func (m *meteredConn) RecvFrame() ([]byte, error) {
	frame, err := m.Conn.RecvFrame()
	if err == nil && m.recv != nil {
		m.recv.Observe(float64(len(frame)))
	}
	return frame, err
}
