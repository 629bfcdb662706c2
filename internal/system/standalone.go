package system

import (
	"fmt"

	"astrasim/internal/collectives"
	"astrasim/internal/config"
	"astrasim/internal/eventq"
	"astrasim/internal/noc"
	"astrasim/internal/pdes"
	"astrasim/internal/topology"
)

// Instance bundles a ready-to-run engine, network, and system layer. Net
// is the network with the send path sysCfg.Backend selected (noc.New's
// packet-level path by default, noc.NewFast's unbounded-buffer one for
// the fast backend).
type Instance struct {
	Eng  *eventq.Engine
	Topo topology.Topology
	Net  *noc.Network
	Sys  *System
	// Par is the intra-run parallel runner when sysCfg.IntraParallel > 0
	// on the packet backend, nil otherwise. It exposes the shard engines
	// and window counter for diagnostics (the extintrapar study reports
	// total fired events and windows from it).
	Par *pdes.Runner
}

// NewInstance wires an engine, network and system layer over topo,
// selecting the network backend from sysCfg.Backend. The packet network
// builds its link plan itself (noc.New): serial and partitioned runs
// stamp the same component labels into their event-ordering keys and run
// packet trains on the same links, and only a topology with no links, or
// a zero hop delay, is unlabelled. With sysCfg.IntraParallel > 0 on the
// packet backend, the network is partitioned for intra-run parallel
// execution (pdes.Attach) and the engine's Run/RunUntil transparently
// execute the windowed schedule — results stay byte-identical to the
// serial engine at any worker count.
func NewInstance(topo topology.Topology, sysCfg config.System, netCfg config.Network) (*Instance, error) {
	eng := eventq.New()
	var net *noc.Network
	var par *pdes.Runner
	var err error
	if sysCfg.Backend == config.FastBackend {
		// The fast backend is noc's unbounded-buffer model, always
		// serial; IntraParallel is a packet-mode knob and is deliberately
		// ignored here.
		net, err = noc.NewFast(eng, topo, netCfg)
	} else {
		net, err = noc.New(eng, topo, netCfg)
		if err == nil && sysCfg.IntraParallel > 0 {
			par, err = pdes.Attach(eng, net, sysCfg.IntraParallel)
		}
	}
	if err != nil {
		return nil, err
	}
	sys, err := New(eng, topo, net, sysCfg)
	if err != nil {
		return nil, err
	}
	return &Instance{Eng: eng, Topo: topo, Net: net, Sys: sys, Par: par}, nil
}

// RunCollective executes a single collective of op/bytes to completion on
// a fresh instance and returns its handle (the "bandwidth test" used for
// the paper's collective microbenchmarks, Figs. 9-12).
func RunCollective(topo topology.Topology, sysCfg config.System, netCfg config.Network, op collectives.Op, bytes int64) (*Handle, error) {
	inst, err := NewInstance(topo, sysCfg, netCfg)
	if err != nil {
		return nil, err
	}
	return inst.RunCollective(op, bytes)
}

// RunCollective issues one collective of op/bytes on the instance, runs
// the engine until it drains and returns the collective's handle.
func (inst *Instance) RunCollective(op collectives.Op, bytes int64) (*Handle, error) {
	done := false
	h, err := inst.Sys.IssueCollective(op, bytes, op.String(), func(*Handle) { done = true })
	if err != nil {
		return nil, err
	}
	inst.Eng.Run()
	if err := inst.Eng.Err(); err != nil {
		return nil, err
	}
	if !done {
		return nil, fmt.Errorf("system: collective %v (%d bytes) did not complete; %d events fired",
			op, bytes, inst.Eng.Fired())
	}
	return h, nil
}
