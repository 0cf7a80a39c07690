// Package hetdsm is an adaptive heterogeneous software distributed shared
// memory system: a Go reproduction of "An Adaptive Heterogeneous Software
// DSM" (Walters, Jiang, Chaudhary; ICPP Workshops 2006).
//
// The system has three layers, re-exported here as one public API:
//
//   - DSD (Distributed Shared Data): a home-based release-consistency DSM
//     whose synchronization primitives — Lock, Unlock, Barrier, Join — map
//     one-to-one onto their Pthreads counterparts. Write detection is
//     page-granular (a software MMU with twin/diff), propagation is
//     object-granular through an architecture-independent index table, and
//     data crosses platforms as CGT-RMR tags plus raw bytes converted
//     "receiver makes right".
//
//   - MigThread: application-level thread state capture and restoration.
//     Workloads are step-structured with their migratable locals in a typed
//     Frame; threads move between heterogeneous virtual platforms under an
//     iso-computing discipline (thread i only lands in skeleton slot i).
//
//   - The adaptive layer: a double-threshold load balancer that sheds
//     threads from overloaded nodes onto idle machines holding matching
//     skeleton slots.
//
// Heterogeneity is modeled with virtual platforms (LinuxX86, SolarisSPARC,
// and 64-bit variants) that differ in byte order, data model and page size
// — the exact ABI surface the paper's Sun Fire V440 / Pentium 4 pairing
// exercised. Everything runs in one process over the in-process transport,
// or genuinely distributed over TCP.
//
// A minimal program:
//
//	gthv := hetdsm.Struct{Name: "GThV_t", Fields: []hetdsm.Field{
//		{Name: "counter", T: hetdsm.Int()},
//	}}
//	home, _ := hetdsm.NewHome(gthv, hetdsm.LinuxX86, 2, hetdsm.DefaultOptions())
//	a, _ := home.LocalThread(0, hetdsm.SolarisSPARC, hetdsm.DefaultOptions())
//	b, _ := home.LocalThread(1, hetdsm.LinuxX86, hetdsm.DefaultOptions())
//	// In goroutine 1:
//	a.Lock(0)
//	v := a.Globals().MustVar("counter")
//	x, _ := v.Int(0)
//	v.SetInt(0, x+1)
//	a.Unlock(0)
//	// goroutine 2 does the same with b; no increment is ever lost,
//	// byte order notwithstanding.
package hetdsm

import (
	"io"

	"hetdsm/internal/apps"
	"hetdsm/internal/checkpoint"
	"hetdsm/internal/dsd"
	"hetdsm/internal/flight"
	"hetdsm/internal/migio"
	"hetdsm/internal/migthread"
	"hetdsm/internal/platform"
	"hetdsm/internal/sched"
	"hetdsm/internal/stats"
	"hetdsm/internal/tag"
	"hetdsm/internal/transport"
	"hetdsm/internal/wire"
)

// --- Virtual platforms ---

// Platform describes one virtual machine's ABI surface: byte order, data
// model, alignment and page size.
type Platform = platform.Platform

// The paper's evaluation platforms and their 64-bit variants.
var (
	// LinuxX86 is the paper's Pentium 4: little-endian ILP32, 4 KiB pages.
	LinuxX86 = platform.LinuxX86
	// SolarisSPARC is the paper's Sun Fire V440: big-endian ILP32, 8 KiB
	// pages.
	SolarisSPARC = platform.SolarisSPARC
	// LinuxX8664 is a little-endian LP64 variant.
	LinuxX8664 = platform.LinuxX8664
	// SolarisSPARC64 is a big-endian LP64 variant.
	SolarisSPARC64 = platform.SolarisSPARC64
)

// PlatformByName resolves a built-in platform from its name.
func PlatformByName(name string) *Platform { return platform.ByName(name) }

// Platforms returns all built-in platforms.
func Platforms() []*Platform { return platform.All() }

// --- Shared-data type language (the GThV structure) ---

// Struct declares a C-like structure; the single global structure GThV is
// always a Struct.
type Struct = tag.Struct

// Field is one Struct member.
type Field = tag.Field

// Type is a platform-independent C data type.
type Type = tag.Type

// Scalar is a logical C scalar type.
type Scalar = tag.Scalar

// Pointer is a C data pointer (transferred via the index table).
type Pointer = tag.Pointer

// Array is a fixed-length C array.
type Array = tag.Array

// Int returns the C int type.
func Int() Scalar { return tag.Int() }

// Long returns the C long type (4 bytes ILP32, 8 bytes LP64).
func Long() Scalar { return tag.Long() }

// LongLong returns the C long long type (8 bytes on every platform).
func LongLong() Scalar { return tag.LongLong() }

// Double returns the C double type.
func Double() Scalar { return tag.Double() }

// Char returns the C char type.
func Char() Scalar { return tag.Char() }

// IntArray returns int[n].
func IntArray(n int) Array { return tag.IntArray(n) }

// DoubleArray returns double[n].
func DoubleArray(n int) Array { return tag.DoubleArray(n) }

// --- DSD: the distributed shared data layer ---

// Options tune the DSD pipeline (coalescing, whole-array transfers, diff
// granularity, segment base address).
type Options = dsd.Options

// DefaultOptions is the paper's configuration.
func DefaultOptions() Options { return dsd.DefaultOptions() }

// Protocol selects how the home propagates modifications.
type Protocol = dsd.Protocol

// The propagation protocols.
const (
	// ProtocolUpdate is the paper's scheme: grants carry the data.
	ProtocolUpdate = dsd.ProtocolUpdate
	// ProtocolInvalidate carries invalidations; reads fetch on demand.
	ProtocolInvalidate = dsd.ProtocolInvalidate
)

// Home is the base node: master copy, distributed mutexes, barriers.
type Home = dsd.Home

// HomeImage is a home's state at a cut — what Home.Image captures and
// Home.Restore loads, on any platform.
type HomeImage = wire.HomeImage

// NewHome creates the home node for a GThV type; nthreads is the number of
// worker threads participating in barriers and joins.
func NewHome(gthv Struct, p *Platform, nthreads int, opts Options) (*Home, error) {
	return dsd.NewHome(gthv, p, nthreads, opts)
}

// Thread is a DSD worker: Lock/Unlock/Barrier/Join plus typed access to its
// GThV replica.
type Thread = dsd.Thread

// Globals is the typed view of a replica.
type Globals = dsd.Globals

// Var is a typed handle on one GThV member.
type Var = dsd.Var

// Dial connects a new worker thread to a home over a network.
func Dial(nw Network, addr string, p *Platform, rank int32, gthv Struct, opts Options) (*Thread, error) {
	return dsd.Dial(nw, addr, p, rank, gthv, opts)
}

// --- MigThread: heterogeneous thread migration ---

// Node hosts iso-computing thread slots on one virtual machine.
type Node = migthread.Node

// NewNode creates a node whose threads reach the DSD home at homeAddr.
func NewNode(name string, p *Platform, nw Network, homeAddr string, gthv Struct, opts Options) *Node {
	return migthread.NewNode(name, p, nw, homeAddr, gthv, opts)
}

// Work is a step-structured migratable workload.
type Work = migthread.Work

// Ctx is a running thread's context: DSD endpoint plus local frame.
type Ctx = migthread.Ctx

// Frame holds a thread's migratable locals in platform layout.
type Frame = migthread.Frame

// Role is a thread slot's role (master/local/skeleton/remote/stub).
type Role = migthread.Role

// The Figure 1 roles.
const (
	RoleMaster   = migthread.RoleMaster
	RoleLocal    = migthread.RoleLocal
	RoleSkeleton = migthread.RoleSkeleton
	RoleRemote   = migthread.RoleRemote
	RoleStub     = migthread.RoleStub
	RoleDone     = migthread.RoleDone
)

// MigrationRecord documents one completed migration.
type MigrationRecord = migthread.MigrationRecord

// --- Checkpointing (MigThread's portable checkpoint facility) ---

// Checkpoint is a complete application-level thread state, restorable on
// any platform.
type Checkpoint = checkpoint.Checkpoint

// LoadCheckpoint reads a checkpoint blob from r, verifying its integrity.
func LoadCheckpoint(r io.Reader) (*Checkpoint, error) { return checkpoint.Load(r) }

// DecodeCheckpoint parses a checkpoint blob.
func DecodeCheckpoint(b []byte) (*Checkpoint, error) { return checkpoint.Decode(b) }

// --- Migratable I/O (the paper's future work: file and socket migration) ---

// SharedFS is the cluster-visible in-memory filesystem.
type SharedFS = migio.SharedFS

// NewSharedFS returns an empty shared filesystem.
func NewSharedFS() *SharedFS { return migio.NewSharedFS() }

// FileTable is a thread's migratable open-file descriptor table.
type FileTable = migio.Table

// NewFileTable returns an empty descriptor table over fs.
func NewFileTable(fs *SharedFS) *FileTable { return migio.NewTable(fs) }

// RestoreFileTable rebuilds a captured descriptor table on another
// platform, reopening every file at its recorded offset.
func RestoreFileTable(fs *SharedFS, dest *Platform, srcPlatName, tagStr string, img []byte) (*FileTable, error) {
	return migio.RestoreTable(fs, dest, srcPlatName, tagStr, img)
}

// File access modes.
const (
	ModeRead      = migio.ModeRead
	ModeWrite     = migio.ModeWrite
	ModeReadWrite = migio.ModeReadWrite
)

// SessionServer accepts resumable (migration-surviving) sessions.
type SessionServer = migio.SessionServer

// NewSessionServer listens for resumable sessions at addr.
func NewSessionServer(nw Network, addr string) (*SessionServer, error) {
	return migio.NewSessionServer(nw, addr)
}

// MigSocket is the client end of a resumable session.
type MigSocket = migio.MigSocket

// SocketState is a captured session, re-attachable from any node.
type SocketState = migio.SocketState

// DialSession opens a new resumable session.
func DialSession(nw Network, addr string) (*MigSocket, error) { return migio.DialSession(nw, addr) }

// ResumeSession re-attaches a captured session — socket migration.
func ResumeSession(nw Network, st SocketState) (*MigSocket, error) {
	return migio.ResumeSession(nw, st)
}

// --- Adaptive scheduling ---

// Balancer redistributes threads by the double-threshold policy.
type Balancer = sched.Balancer

// Policy holds balancer thresholds.
type Policy = sched.Policy

// DefaultPolicy sheds above 0.75 load onto nodes below 0.25.
func DefaultPolicy() Policy { return sched.DefaultPolicy() }

// LoadSource reports node loads to the balancer.
type LoadSource = sched.LoadSource

// LoadFunc adapts a function to LoadSource.
type LoadFunc = sched.LoadFunc

// NewBalancer builds a balancer over a set of nodes.
func NewBalancer(policy Policy, loads LoadSource, nodes ...*Node) (*Balancer, error) {
	return sched.NewBalancer(policy, loads, nodes...)
}

// NewScriptedLoad replays per-node load traces.
func NewScriptedLoad(traces map[string][]float64) *sched.ScriptedLoad {
	return sched.NewScriptedLoad(traces)
}

// --- Transports ---

// Network creates listeners and dials peers.
type Network = transport.Network

// Conn is a frame connection between nodes.
type Conn = transport.Conn

// Listener accepts inbound connections.
type Listener = transport.Listener

// NewInproc returns an in-process network (single-process clusters).
func NewInproc() *transport.Inproc { return transport.NewInproc() }

// TCPNetwork returns the TCP network (genuinely distributed clusters).
func TCPNetwork() Network { return transport.TCP{} }

// --- Instrumentation ---

// EventRing is the protocol event ring; install one via Options.Events to
// observe lock grants, releases, barriers, redirects, update applications
// and the timed stages of every release.
type EventRing = flight.Ring

// RingEvent is one recorded protocol moment or release span.
type RingEvent = flight.Event

// NewEventRing returns a ring retaining the last capacity events.
func NewEventRing(capacity int) *EventRing { return flight.New(capacity) }

// Breakdown accumulates the Eq. 1 data-sharing cost decomposition.
type Breakdown = stats.Breakdown

// Phase labels one Eq. 1 component.
type Phase = stats.Phase

// The Eq. 1 components: Cshare = t_index+t_tag+t_pack+t_unpack+t_conv.
const (
	PhaseIndex  = stats.Index
	PhaseTag    = stats.Tag
	PhasePack   = stats.Pack
	PhaseUnpack = stats.Unpack
	PhaseConv   = stats.Conv
	NumPhases   = stats.NumPhases
)

// --- Evaluation workloads (the paper's benchmarks) ---

// ExperimentConfig describes one paper experiment run.
type ExperimentConfig = apps.Config

// ExperimentResult is one experiment's measurements.
type ExperimentResult = apps.Result

// PlatformPair is a home/remote platform pairing ("LL", "SS", "SL").
type PlatformPair = apps.Pair

// PlatformPairs returns the paper's three pairs.
func PlatformPairs() []PlatformPair { return apps.Pairs() }

// ExtPlatformPairs returns the word-size-heterogeneous extension pairs
// (ILP32 vs LP64) beyond the paper's testbed.
func ExtPlatformPairs() []PlatformPair { return apps.ExtPairs() }

// RunExperiment executes one matmul or LU experiment in the paper's
// three-thread configuration and returns its Cshare breakdown.
func RunExperiment(cfg ExperimentConfig) (*ExperimentResult, error) { return apps.Run(cfg) }
