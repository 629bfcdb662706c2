// Package audit is the simulator's opt-in invariant-checking subsystem:
// a regression net that proves each run conserved what it modeled. It is
// wired through all three layers via observation hooks that compile to
// nil checks when no auditor is attached, so the hot path pays nothing
// when auditing is disabled.
//
// An attached Auditor checks three invariant families:
//
//  1. Byte conservation. Every byte a collective schedule says a node
//     transmits must actually enter the network (system-layer injected
//     bytes == Handle.ScheduledTxBytes summed over issued collectives,
//     plus point-to-point traffic, exactly), must cross every link of its
//     path (per-class noc.LinkStats.Bytes == the per-class path-crossing
//     bytes of every injected message, exactly), and must agree with the
//     analytic per-node arithmetic of the paper's §V-B (the "(126/64)N vs
//     (28/8)N" accounting) within per-message rounding tolerance.
//  2. Quiescence balance. When the event queue drains, every link has an
//     empty queue, no reserved buffer slots, no waiters, no pending
//     arrival records, and an idle serializer; every injection throttle has zero in-flight slots and
//     an empty deferral queue; every logical scheduling queue is empty
//     with zero active chunks; the dispatcher's ready queue and
//     first-phase counter are zero; and every issued collective is Done
//     with DoneAt >= CreatedAt.
//  3. Monotonic stats. Per link, BusyCycles + BlockedCycles never exceed
//     elapsed simulated time (serializer busy and blocked intervals are
//     disjoint), so per-class utilization is always <= 1.
//
// Attach one auditor to one instance (audit.Attach); cli.RunSpec's
// NewInstance does so for every run with Audit set. A sweep gathers the
// verdicts of many instances by handing each auditor to a Collector
// (Collector.Add) — cmd/sweep -audit and the corpus integration test do.
package audit

import (
	"fmt"
	"strings"
	"sync"

	"astrasim/internal/collectives"
	"astrasim/internal/eventq"
	"astrasim/internal/noc"
	"astrasim/internal/system"
	"astrasim/internal/topology"
)

// numLinkClasses sizes the per-class accumulators (intra-package,
// inter-package, scale-out). noc.New and noc.NewFast reject a topology
// with any other link class, so an out-of-range class can never reach the
// accounting.
const numLinkClasses = int(topology.ScaleOutLink) + 1

// Auditor observes one simulation instance through the layer hooks and
// checks its invariants, eagerly at every event-queue drain and on demand
// via Report. An Auditor is single-threaded like the engine it watches.
type Auditor struct {
	sys *system.System
	eng *eventq.Engine

	// classOf maps LinkID -> LinkClass, precomputed at attach time.
	classOf []topology.LinkClass

	// handles are the issued collectives (from the system OnIssue hook).
	handles []*system.Handle
	// p2pBytes are the bytes of point-to-point sends that entered the
	// network (src != dst), from the system OnP2P hook.
	p2pBytes int64
	// injectedBytes / messages count network-layer message injections
	// (from the noc OnSend hook); expectClassBytes accumulates, per link
	// class, the bytes each injected message will carry across each path
	// link — the link counters must match it exactly at quiescence.
	injectedBytes    int64
	messages         uint64
	expectClassBytes [numLinkClasses]int64

	// collector, when non-nil, receives this auditor's result at every
	// event-queue drain (see Collector.Add).
	collector *Collector
	reported  bool
}

// Attach registers an auditor on one instance's system and network layers
// (overwriting any previously attached hooks). Every invariant family
// applies to both backends. The returned Auditor checks invariants
// whenever the engine drains; call Report for the verdict.
func Attach(sys *system.System) *Auditor {
	a := &Auditor{sys: sys, eng: sys.Eng}
	links := sys.Topo.Links()
	a.classOf = make([]topology.LinkClass, len(links))
	for i, l := range links {
		a.classOf[i] = l.Class
	}
	sys.OnIssue = a.onIssue
	sys.OnP2P = a.onP2P
	sys.Net.OnSend = a.onSend
	sys.Eng.SetOnDrain(a.onDrain)
	return a
}

func (a *Auditor) onIssue(h *system.Handle) { a.handles = append(a.handles, h) }

func (a *Auditor) onP2P(src, dst topology.Node, bytes int64) { a.p2pBytes += bytes }

func (a *Auditor) onSend(m *noc.Message) {
	a.messages++
	a.injectedBytes += m.Bytes
	for _, id := range m.Path {
		a.expectClassBytes[a.classOf[id]] += m.Bytes
	}
}

// onDrain runs the checks at quiescence. With a collector attached the
// verdict is recorded once per instance (on the first drain; later drains
// of a multi-Run instance re-record only new violations via Report).
func (a *Auditor) onDrain() {
	r := a.Report()
	if a.collector != nil && !a.reported {
		a.reported = true
		a.collector.record(r)
	} else if a.collector != nil && !r.OK() {
		a.collector.record(Report{Violations: r.Violations})
	}
}

// Report runs every invariant check against the instance's current state
// and returns the verdict. It is valid at any quiescent point (after
// Engine.Run returns); mid-flight state would legitimately fail the
// quiescence checks.
func (a *Auditor) Report() Report {
	r := Report{
		Collectives:        len(a.handles),
		Messages:           a.messages,
		InjectedBytes:      a.injectedBytes,
		P2PBytes:           a.p2pBytes,
		RetransmittedBytes: a.sys.RetransmittedBytes(),
		DroppedPackets:     a.sys.Net.DropStats().DroppedPackets,
	}
	r.Violations = append(r.Violations, a.checkConservation()...)
	r.Violations = append(r.Violations, a.checkQuiescence()...)
	r.Violations = append(r.Violations, a.checkStats()...)
	return r
}

// checkConservation verifies the three byte-conservation ledgers. Fault
// runs are held to the same exactness: retransmitted traffic is accounted
// in its own ledger on top of the scheduled goodput, and dropped packets'
// uncrossed path links are subtracted per class via the network's
// shortfall ledger.
func (a *Auditor) checkConservation() []string {
	var v []string

	// (1) Schedule -> network: what the compiled schedules say all nodes
	// transmit — plus point-to-point sends, plus the retransmit ledger —
	// must equal what entered the network, byte for byte.
	var scheduled int64
	for _, h := range a.handles {
		scheduled += h.ScheduledTxBytes()
	}
	retx := a.sys.RetransmittedBytes()
	if want := scheduled + a.p2pBytes + retx; a.injectedBytes != want {
		v = append(v, fmt.Sprintf(
			"conservation: injected %d bytes, schedules+p2p+retransmits say %d (collectives %d + p2p %d + retransmitted %d)",
			a.injectedBytes, want, scheduled, a.p2pBytes, retx))
	}

	// (2) Network -> links: every injected byte must cross every link of
	// its path exactly once, per class — except the links downstream of a
	// fault-injected drop, which the network tallies in its shortfall
	// ledger at the drop site.
	intra, inter, scaleOut := a.sys.Net.TotalBytesByClass()
	actual := [numLinkClasses]int64{intra, inter, scaleOut}
	sIntra, sInter, sScaleOut := a.sys.Net.DroppedPathBytesByClass()
	shortfall := [numLinkClasses]int64{sIntra, sInter, sScaleOut}
	for c, want := range a.expectClassBytes {
		if actual[c]+shortfall[c] != want {
			v = append(v, fmt.Sprintf(
				"conservation: %v links carried %d bytes (+%d dropped short), injected paths say %d",
				topology.LinkClass(c), actual[c], shortfall[c], want))
		}
	}

	// (3) Schedule -> analytic: per collective, the chunked schedule must
	// agree with the closed-form per-node arithmetic within rounding
	// tolerance. Each scheduled message truncates (or floors to one) its
	// exact fractional size by less than a byte, and each analytic
	// message slot is split across NumChunks chunks, so a slot's
	// chunked-vs-analytic deviation is below NumChunks+1 bytes:
	// tolerance = messages (slots x chunks) + slots + 1.
	for _, h := range a.handles {
		analytic := collectives.TotalCollectiveBytesPerNode(h.Phases(), h.Bytes) * int64(a.sys.Topo.NumNPUs())
		got := h.ScheduledTxBytes()
		msgs := h.ScheduledMessages()
		tol := msgs + msgs/int64(max(h.NumChunks(), 1)) + 1
		if diff := got - analytic; diff > tol || diff < -tol {
			v = append(v, fmt.Sprintf(
				"conservation: collective %d (%v, %d bytes) schedules %d tx bytes, analytic %d (tolerance %d)",
				h.ID, h.Op, h.Bytes, got, analytic, tol))
		}
	}
	return v
}

// checkQuiescence verifies that nothing is queued, reserved, or in flight
// anywhere, and that every issued collective completed coherently.
func (a *Auditor) checkQuiescence() []string {
	var v []string
	for _, l := range a.sys.Net.DebugLinks() {
		if l.Queued != 0 || l.Reserved != 0 || l.Waiters != 0 || l.Pending != 0 || l.Busy || l.Blocked {
			v = append(v, fmt.Sprintf(
				"quiescence: link %d (%v) not drained: queued=%d reserved=%d waiters=%d pending=%d busy=%v blocked=%v",
				l.ID, l.Class, l.Queued, l.Reserved, l.Waiters, l.Pending, l.Busy, l.Blocked))
		}
	}
	st := a.sys.DebugState()
	if st != (system.DebugState{}) {
		v = append(v, fmt.Sprintf(
			"quiescence: scheduler not drained: ready=%d inFirstPhase=%d lsqActive=%d lsqQueued=%d injInFlight=%d injQueued=%d",
			st.ReadyChunks, st.InFirstPhase, st.LSQActive, st.LSQQueued, st.InjectorsInFlight, st.InjectorsQueued))
	}
	for _, h := range a.handles {
		if !h.Done() {
			v = append(v, fmt.Sprintf("quiescence: collective %d (%v, %q) never completed", h.ID, h.Op, h.Tag))
			continue
		}
		if h.DoneAt < h.CreatedAt {
			v = append(v, fmt.Sprintf(
				"quiescence: collective %d (%v) has DoneAt %d < CreatedAt %d", h.ID, h.Op, h.DoneAt, h.CreatedAt))
		}
	}
	return v
}

// checkStats verifies per-link counter monotonicity: busy plus blocked
// serializer time can never exceed elapsed simulated time, so utilization
// is always <= 1.
func (a *Auditor) checkStats() []string {
	var v []string
	now := a.eng.Now()
	for _, l := range a.sys.Net.DebugLinks() {
		if l.Stats.BusyCycles+l.Stats.BlockedCycles > now {
			v = append(v, fmt.Sprintf(
				"stats: link %d (%v) busy %d + blocked %d cycles exceeds elapsed %d",
				l.ID, l.Class, l.Stats.BusyCycles, l.Stats.BlockedCycles, now))
		}
	}
	return v
}

// Report is one auditor's verdict plus its traffic ledger.
type Report struct {
	// Violations lists every invariant breach; empty means the run is
	// provably conservative and balanced.
	Violations []string
	// Collectives / Messages / InjectedBytes / P2PBytes summarize the
	// audited traffic. RetransmittedBytes and DroppedPackets summarize
	// fault-injection recovery activity (zero on fault-free runs).
	Collectives        int
	Messages           uint64
	InjectedBytes      int64
	P2PBytes           int64
	RetransmittedBytes int64
	DroppedPackets     uint64
}

// OK reports a clean audit.
func (r Report) OK() bool { return len(r.Violations) == 0 }

// Err returns nil for a clean audit, or one error joining every violation.
func (r Report) Err() error {
	if r.OK() {
		return nil
	}
	return fmt.Errorf("audit: %d invariant violation(s): %s", len(r.Violations), strings.Join(r.Violations, "; "))
}

func (r Report) String() string {
	if r.OK() {
		faults := ""
		if r.DroppedPackets > 0 || r.RetransmittedBytes > 0 {
			faults = fmt.Sprintf(", %d packets dropped / %d bytes retransmitted", r.DroppedPackets, r.RetransmittedBytes)
		}
		return fmt.Sprintf("audit ok: %d collectives, %d messages, %d bytes injected (%d p2p)%s, 0 violations",
			r.Collectives, r.Messages, r.InjectedBytes, r.P2PBytes, faults)
	}
	return fmt.Sprintf("audit FAILED: %d violation(s):\n  %s", len(r.Violations), strings.Join(r.Violations, "\n  "))
}

// Collector aggregates audit verdicts across many instances — the sweep
// mode, where parallel workers each run their own instances. Safe for
// concurrent recording.
type Collector struct {
	mu            sync.Mutex
	runs          int
	collectives   int
	messages      uint64
	injectedBytes int64
	violations    []string
}

// record folds one instance's verdict in.
func (c *Collector) record(r Report) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.runs++
	c.collectives += r.Collectives
	c.messages += r.Messages
	c.injectedBytes += r.InjectedBytes
	c.violations = append(c.violations, r.Violations...)
}

// Runs returns how many instances reported.
func (c *Collector) Runs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runs
}

// Violations returns a copy of every recorded violation.
func (c *Collector) Violations() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.violations...)
}

// Summary renders the aggregate verdict.
func (c *Collector) Summary() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.violations) == 0 {
		return fmt.Sprintf("audit ok: %d runs, %d collectives, %d messages, %d bytes injected, 0 violations",
			c.runs, c.collectives, c.messages, c.injectedBytes)
	}
	return fmt.Sprintf("audit FAILED: %d violation(s) across %d runs:\n  %s",
		len(c.violations), c.runs, strings.Join(c.violations, "\n  "))
}

// Add records a's verdict into c when a's engine drains, once per
// instance, plus any violation a later drain finds. Either side may be
// nil (no collector, or an instance built without an auditor); Add then
// does nothing. Call it before the instance runs.
func (c *Collector) Add(a *Auditor) {
	if c != nil && a != nil {
		a.collector = c
	}
}
