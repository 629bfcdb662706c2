package system

import (
	"astrasim/internal/config"
	"astrasim/internal/eventq"
	"astrasim/internal/noc"
	"astrasim/internal/topology"
)

// Network abstracts the transport under the system layer — the seam of the
// simulator's congestion-aware/unaware duality (the original ASTRA-SIM
// ships a Garnet binary and an analytical binary for the same reason).
// Both are one *noc.Network with two send paths over shared per-link
// state:
//
//   - noc.New (config.PacketBackend): the congestion-aware
//     packet-granularity fabric with finite buffers, head-of-line
//     backpressure, and fault injection.
//   - noc.NewFast (config.FastBackend): the congestion-unaware
//     analytical model derived from the oracle's alpha-beta recurrence —
//     closed-form link serialization with unbounded buffers, exact
//     whenever the packet model's buffers never fill.
//
// The system layer drives either implementation identically: chunk phase
// messages and point-to-point sends go down through Send, delivery comes
// back through noc.Message.OnDelivered, and the accounting surface
// (per-class byte totals, utilization, quiescence, link snapshots) feeds
// the audit layer, the energy model, and the experiment reports unchanged.
//
// The interface stays although one type implements it: the system layer's
// tests drive it with recording fakes. Capabilities beyond it, fault
// injection and intra-run partitioning, are packet-only; callers check
// Backend() and must fail with a clear error on the fast backend.
type Network interface {
	// Send injects one message; OnDelivered fires when its last packet
	// reaches the destination.
	Send(*noc.Message)
	// SetOnSend installs (or clears) the per-message injection observer
	// the audit layer uses for byte-conservation accounting.
	SetOnSend(func(*noc.Message))
	// Backend identifies the implementation (packet or fast).
	Backend() config.Backend
	// TotalBytesByClass sums bytes carried per link class.
	TotalBytesByClass() (intra, inter, scaleOut int64)
	// DroppedPathBytesByClass reports, per class, bytes that fault-dropped
	// packets never carried (always zero on backends without drops).
	DroppedPathBytesByClass() (intra, inter, scaleOut int64)
	// DropStats reports fault-injection loss totals (zero without faults).
	DropStats() noc.FaultStats
	// UtilizationByClass computes per-class link occupancy over [0, until].
	UtilizationByClass(until eventq.Time) map[topology.LinkClass]noc.ClassUtilization
	// DebugLinks snapshots every link's dynamic state for the audit
	// layer's quiescence and stats-monotonicity checks.
	DebugLinks() []noc.LinkDebugState
	// ScaleLinkBandwidth derates or boosts one link's effective bandwidth
	// (what-if hook; must precede the traffic that should observe it).
	ScaleLinkBandwidth(id topology.LinkID, factor float64)
	// Quiet reports whether no traffic is queued or in flight.
	Quiet() bool
}
