// Package faults is the fault-injection and graceful-degradation
// subsystem: it turns a declarative, seed-reproducible *fault plan* into
// per-layer fault state on a simulation instance, so resilience questions
// — "what happens to training time when link 7 runs at half bandwidth for
// 2 ms?", "how much does a 0.1% packet-loss fabric cost an all-reduce?" —
// become one JSON file away from any existing run.
//
// A Plan composes four fault classes plus one recovery policy:
//
//   - Degraded links: a bandwidth multiplier over a cycle window, applied
//     at packet-serialization time by the network layer.
//   - Transient outages: cycle windows during which a link serializes
//     nothing; queued packets hold and drain when the window lifts.
//   - Stragglers: per-node endpoint (NMU) slowdown factors.
//   - Packet drops: a per-link loss probability. Each serialized packet's
//     fate is a deterministic hash of (plan seed, link, packet sequence),
//     so a plan replays bit-identically at any sweep parallelism.
//   - Retry: the system layer's endpoint timeout -> retransmit-with-
//     backoff protocol that recovers dropped messages. Plans with drops
//     must carry a retry policy — without one a lost packet would stall
//     its collective forever.
//
// Link and node selectors outside the instance's topology are ignored, so
// one plan can drive a sweep spanning many topology sizes (class-based
// selectors are the portable spelling). Apply wires one instance;
// cli.RunSpec's NewInstance applies a run's plan to every instance it
// builds, which is how the command-line tools, the daemon and cmd/sweep
// -faults fault a whole run or sweep.
//
// Invariant: fault runs conserve goodput bytes exactly. Retransmitted
// traffic accrues to a dedicated ledger (system.System.RetransmittedBytes)
// and dropped packets' uncrossed path links to another
// (noc.Network.DroppedPathBytesByClass), so the audit layer's byte
// conservation stays exact — not approximate — under loss. The audit
// corpus replays the degradation study to enforce this.
package faults

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"astrasim/internal/config"
	"astrasim/internal/eventq"
	"astrasim/internal/noc"
	"astrasim/internal/system"
	"astrasim/internal/topology"
)

// LinkSet selects the links a fault applies to: either an explicit ID
// list or a link class ("intra", "inter", "scaleout", or "all"). Exactly
// one of the two must be set. IDs beyond the instance's topology are
// ignored, so explicit-ID plans degrade gracefully across topologies.
type LinkSet struct {
	Links []int  `json:"links,omitempty"`
	Class string `json:"class,omitempty"`
}

// validate checks the selector shape (not topology bounds).
func (s LinkSet) validate() error {
	if (len(s.Links) > 0) == (s.Class != "") {
		return fmt.Errorf("faults: link selector needs exactly one of \"links\" or \"class\" (got links=%v class=%q)", s.Links, s.Class)
	}
	switch strings.ToLower(s.Class) {
	case "", "intra", "inter", "scaleout", "all":
		return nil
	}
	return fmt.Errorf("faults: unknown link class %q (want intra|inter|scaleout|all)", s.Class)
}

// matches reports whether the selector covers a link of the given spec.
func (s LinkSet) matches(spec topology.LinkSpec) bool {
	if len(s.Links) > 0 {
		for _, id := range s.Links {
			if topology.LinkID(id) == spec.ID {
				return true
			}
		}
		return false
	}
	switch strings.ToLower(s.Class) {
	case "all":
		return true
	case "intra":
		return spec.Class == topology.IntraPackage
	case "inter":
		return spec.Class == topology.InterPackage
	case "scaleout":
		return spec.Class == topology.ScaleOutLink
	}
	return false
}

// Degrade scales the selected links' effective bandwidth by
// BandwidthFactor over the cycle window [Start, End).
type Degrade struct {
	LinkSet
	Start           uint64  `json:"start"`
	End             uint64  `json:"end"`
	BandwidthFactor float64 `json:"bandwidth_factor"`
}

// Outage takes the selected links down over the cycle window [Start,
// End): no new packet starts serializing inside the window, queued
// traffic holds, and service resumes when it lifts.
type Outage struct {
	LinkSet
	Start uint64 `json:"start"`
	End   uint64 `json:"end"`
}

// Straggler slows one node's endpoint (NMU) message processing by Factor
// for the whole run (the paper's straggler-sensitivity knob).
type Straggler struct {
	Node   int     `json:"node"`
	Factor float64 `json:"factor"`
}

// Drop loses each packet serialized on the selected links with the given
// probability, decided deterministically from the plan seed. Multiple
// Drop rules covering the same link compose as independent loss processes
// (combined probability 1 - prod(1 - p_i)).
type Drop struct {
	LinkSet
	Probability float64 `json:"probability"`
}

// Retry is the recovery protocol for dropped packets: a lost message is
// retransmitted after Timeout cycles, backing off by Backoff per attempt,
// up to MaxRetries attempts (see system.RetryPolicy).
type Retry struct {
	Timeout    uint64  `json:"timeout"`
	Backoff    float64 `json:"backoff"`
	MaxRetries int     `json:"max_retries"`
}

// Plan is a declarative fault-injection plan. The zero value is a valid
// no-fault plan; Seed makes every probabilistic decision reproducible.
type Plan struct {
	Seed       uint64      `json:"seed"`
	Degrades   []Degrade   `json:"degraded_links,omitempty"`
	Outages    []Outage    `json:"outages,omitempty"`
	Stragglers []Straggler `json:"stragglers,omitempty"`
	Drops      []Drop      `json:"drops,omitempty"`
	Retry      *Retry      `json:"retry,omitempty"`
}

// Validate checks the plan's internal consistency: well-formed windows
// and selectors, positive factors, probabilities in [0, 1), and a retry
// policy whenever drops are present.
func (p *Plan) Validate() error {
	for i, d := range p.Degrades {
		if err := d.validate(); err != nil {
			return fmt.Errorf("faults: degraded_links[%d]: %w", i, err)
		}
		if d.BandwidthFactor <= 0 {
			return fmt.Errorf("faults: degraded_links[%d]: bandwidth_factor must be positive, got %v", i, d.BandwidthFactor)
		}
		if d.Start >= d.End {
			return fmt.Errorf("faults: degraded_links[%d]: window [%d,%d) is empty", i, d.Start, d.End)
		}
	}
	for i, o := range p.Outages {
		if err := o.validate(); err != nil {
			return fmt.Errorf("faults: outages[%d]: %w", i, err)
		}
		if o.Start >= o.End {
			return fmt.Errorf("faults: outages[%d]: window [%d,%d) is empty", i, o.Start, o.End)
		}
	}
	for i, s := range p.Stragglers {
		if s.Node < 0 {
			return fmt.Errorf("faults: stragglers[%d]: node must be >= 0, got %d", i, s.Node)
		}
		if s.Factor <= 0 {
			return fmt.Errorf("faults: stragglers[%d]: factor must be positive, got %v", i, s.Factor)
		}
	}
	for i, d := range p.Drops {
		if err := d.validate(); err != nil {
			return fmt.Errorf("faults: drops[%d]: %w", i, err)
		}
		if d.Probability < 0 || d.Probability >= 1 {
			return fmt.Errorf("faults: drops[%d]: probability must be in [0,1), got %v", i, d.Probability)
		}
	}
	if len(p.Drops) > 0 && p.Retry == nil {
		return fmt.Errorf("faults: drops require a retry policy (a lost packet would stall its collective forever)")
	}
	if r := p.Retry; r != nil {
		if r.Timeout == 0 {
			return fmt.Errorf("faults: retry: timeout must be positive")
		}
		if r.Backoff < 1 {
			return fmt.Errorf("faults: retry: backoff must be >= 1, got %v", r.Backoff)
		}
		if r.MaxRetries < 0 {
			return fmt.Errorf("faults: retry: max_retries must be >= 0, got %d", r.MaxRetries)
		}
	}
	return nil
}

// Parse reads and validates a JSON fault plan. Unknown fields are errors,
// so a typo'd knob fails loudly instead of silently injecting nothing.
func Parse(r io.Reader) (*Plan, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var p Plan
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("faults: bad plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Load reads and validates a JSON fault plan from a file.
func Load(path string) (*Plan, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("faults: %w", err)
	}
	defer fh.Close()
	p, err := Parse(fh)
	if err != nil {
		return nil, fmt.Errorf("faults: %s: %w", path, err)
	}
	return p, nil
}

// Apply validates the plan and installs its fault state on one instance:
// per-link fault machines on the network layer, straggler factors and the
// retry policy on the system layer. Selectors that fall outside the
// instance's topology are ignored. Must run before the traffic that
// should observe the faults.
func Apply(p *Plan, inst *system.Instance) error {
	if err := p.Validate(); err != nil {
		return err
	}
	// Link-level fault machinery (degradation windows, outages, drops)
	// lives in the packet backend; congestion-unaware timing under loss
	// is not meaningful. Stragglers and retry are system-layer and would
	// work anywhere, but a plan is all-or-nothing: reject early rather
	// than silently apply half of it. Both backends are *noc.Network, so
	// the backend, not the type, decides.
	if inst.Net.Backend() != config.PacketBackend {
		return fmt.Errorf("faults: fault injection requires the packet backend (config.PacketBackend); the %v backend does not model faults", inst.Net.Backend())
	}
	links := inst.Topo.Links()
	perLink := make(map[topology.LinkID]*noc.LinkFaults)
	faultsFor := func(id topology.LinkID) *noc.LinkFaults {
		lf, ok := perLink[id]
		if !ok {
			lf = &noc.LinkFaults{}
			perLink[id] = lf
		}
		return lf
	}
	for _, d := range p.Degrades {
		for _, spec := range links {
			if d.matches(spec) {
				faultsFor(spec.ID).Degrades = append(faultsFor(spec.ID).Degrades, noc.Degrade{
					Window: noc.Window{Start: eventq.Time(d.Start), End: eventq.Time(d.End)},
					Factor: d.BandwidthFactor,
				})
			}
		}
	}
	for _, o := range p.Outages {
		for _, spec := range links {
			if o.matches(spec) {
				faultsFor(spec.ID).Outages = append(faultsFor(spec.ID).Outages,
					noc.Window{Start: eventq.Time(o.Start), End: eventq.Time(o.End)})
			}
		}
	}
	for _, d := range p.Drops {
		for _, spec := range links {
			if d.matches(spec) {
				lf := faultsFor(spec.ID)
				// Independent loss processes compose by complement product.
				lf.DropProb = 1 - (1-lf.DropProb)*(1-d.Probability)
			}
		}
	}
	// Iterate the (immutable, ordered) link list rather than the map so
	// installation order is deterministic; each link's state is
	// independent either way.
	for _, spec := range links {
		if lf, ok := perLink[spec.ID]; ok {
			if err := inst.Net.SetLinkFaults(spec.ID, *lf, p.Seed); err != nil {
				return err
			}
		}
	}
	for _, s := range p.Stragglers {
		if s.Node < inst.Topo.NumNPUs() {
			if err := inst.Sys.SetNodeStragglerFactor(topology.Node(s.Node), s.Factor); err != nil {
				return err
			}
		}
	}
	if p.Retry != nil {
		inst.Sys.SetRetryPolicy(&system.RetryPolicy{
			Timeout:    eventq.Time(p.Retry.Timeout),
			Backoff:    p.Retry.Backoff,
			MaxRetries: p.Retry.MaxRetries,
		})
	}
	return nil
}
