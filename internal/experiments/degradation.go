package experiments

import (
	"fmt"

	"astrasim/internal/collectives"
	"astrasim/internal/config"
	"astrasim/internal/eventq"
	"astrasim/internal/faults"
	"astrasim/internal/report"
	"astrasim/internal/system"
)

// faultedRun executes one all-reduce of size bytes on a fresh 4x4x4
// enhanced instance under the given fault plan, applied after the spec's
// own, and returns the handle plus the instance (for drop/retransmit
// counters). Fault injection needs the serial packet engine, so the
// study runs on it whatever o.Spec selects.
func faultedRun(o Options, plan *faults.Plan, size int64) (*system.Handle, *system.Instance, error) {
	spec := o.point("4x4x4", config.Enhanced, asymmetricNet(o.CollectivePktCap))
	spec.System.Backend, spec.System.IntraParallel = config.PacketBackend, 0
	inst, err := o.instance(spec, nil)
	if err != nil {
		return nil, nil, err
	}
	if err := faults.Apply(plan, inst); err != nil {
		return nil, nil, err
	}
	h, err := inst.RunCollective(collectives.AllReduce, size)
	return h, inst, err
}

// ExtDegradation is the graceful-degradation study: how an enhanced
// all-reduce on the 4x4x4 torus absorbs (a) a transient outage of the
// inter-package fabric, swept from zero up to the fault-free completion
// time, and (b) uniform packet loss on the inter-package links recovered
// by timeout/retransmit. Completion-time inflation stays sublinear in
// both sweeps — the collective degrades, it does not collapse — and the
// drop table's retransmit ledger shows the recovery traffic paying for
// that resilience.
func ExtDegradation(o Options) ([]*report.Table, error) {
	size := o.SweepSizes[len(o.SweepSizes)-1]

	// Fault-free baseline anchors both sweeps (outage durations are
	// expressed as fractions of it).
	h0, _, err := faultedRun(o, &faults.Plan{}, size)
	if err != nil {
		return nil, fmt.Errorf("extdegrade baseline: %w", err)
	}
	base := h0.Duration()

	// (a) Inter-package fabric outage from cycle 0, duration 0..base.
	fracs := []struct {
		label string
		num   eventq.Time
		den   eventq.Time
	}{
		{"none", 0, 1}, {"base/8", 1, 8}, {"base/4", 1, 4}, {"base/2", 1, 2}, {"base", 1, 1},
	}
	outDurs, err := grid(o, len(fracs), 1, func(i, _ int) (eventq.Time, error) {
		dur := base * fracs[i].num / fracs[i].den
		plan := &faults.Plan{}
		if dur > 0 {
			plan.Outages = []faults.Outage{{
				LinkSet: faults.LinkSet{Class: "inter"},
				Start:   0, End: uint64(dur),
			}}
		}
		h, _, err := faultedRun(o, plan, size)
		if err != nil {
			return 0, fmt.Errorf("extdegrade outage %s: %w", fracs[i].label, err)
		}
		return h.Duration(), nil
	})
	if err != nil {
		return nil, err
	}
	outage := report.New("extdegrade-outage",
		fmt.Sprintf("Inter-package outage from cycle 0 vs %s enhanced all-reduce on 4x4x4 (baseline %d cycles)",
			report.Bytes(size), int64(base)),
		"outage", "cycles", "time(cycles)", "slowdown")
	for i, f := range fracs {
		dur := base * f.num / f.den
		outage.AddRow(f.label, report.Int(int64(dur)), report.Int(int64(outDurs[i][0])),
			report.Float(float64(outDurs[i][0])/float64(base)))
	}

	// (b) Uniform inter-package packet loss with timeout/retransmit.
	probs := []float64{0, 1e-4, 1e-3, 1e-2}
	type dropRes struct {
		dur     eventq.Time
		drops   uint64
		retrans uint64
		rbytes  int64
	}
	dropRows, err := grid(o, len(probs), 1, func(i, _ int) (dropRes, error) {
		plan := &faults.Plan{
			Seed:  42,
			Retry: &faults.Retry{Timeout: 10000, Backoff: 2, MaxRetries: 30},
		}
		if probs[i] > 0 {
			plan.Drops = []faults.Drop{{
				LinkSet:     faults.LinkSet{Class: "inter"},
				Probability: probs[i],
			}}
		}
		h, inst, err := faultedRun(o, plan, size)
		if err != nil {
			return dropRes{}, fmt.Errorf("extdegrade drop %g: %w", probs[i], err)
		}
		return dropRes{
			dur:     h.Duration(),
			drops:   inst.Net.DropStats().DroppedPackets,
			retrans: inst.Sys.Retransmits(),
			rbytes:  inst.Sys.RetransmittedBytes(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	drops := report.New("extdegrade-drops",
		fmt.Sprintf("Inter-package packet loss with retransmit (timeout 10k cycles, 2x backoff), %s enhanced all-reduce on 4x4x4",
			report.Bytes(size)),
		"drop-prob", "time(cycles)", "slowdown", "dropped-pkts", "retransmits", "retransmitted-bytes")
	for i, p := range probs {
		r := dropRows[i][0]
		drops.AddRow(fmt.Sprintf("%g", p), report.Int(int64(r.dur)),
			report.Float(float64(r.dur)/float64(base)),
			report.Int(int64(r.drops)), report.Int(int64(r.retrans)), report.Int(r.rbytes))
	}
	return []*report.Table{outage, drops}, nil
}
