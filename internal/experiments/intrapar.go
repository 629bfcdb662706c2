package experiments

import (
	"fmt"

	"astrasim/internal/cli"
	"astrasim/internal/collectives"
	"astrasim/internal/config"
	"astrasim/internal/report"
)

// intraParWorkers is the worker-count sweep of the intrapar study:
// serial reference (0), then pool widths 1/2/4. Worker count never
// changes results — the table embeds that claim by reporting identical
// cycles and events for every partitioned row of a shape.
var intraParWorkers = []int{0, 1, 2, 4}

// needsPartitions is extintrapar's spec requirement: its points run the
// spec partitioned, up to the widest worker count.
func needsPartitions(s *cli.RunSpec) error {
	s.System.IntraParallel = intraParWorkers[len(intraParWorkers)-1]
	return nil
}

// ExtIntraPar characterizes intra-run parallel simulation (internal/pdes,
// DESIGN.md §13) across system sizes and worker counts: one enhanced
// all-reduce per (shape, workers) cell. The table reports only
// deterministic quantities — completion cycles, total fired events
// across all engines, barrier windows, and shard count — so the golden
// CSV doubles as a determinism regression: cycles MUST be identical down
// each shape's column, and events/windows identical across partitioned
// rows. Both engines run packet trains (every torus message here is one
// ring hop), so serial rows fire three events per message — the system
// event, one delivery and one train-segment-done — and partitioned rows
// one more, the deferred injection on the link's shard; the event count
// no longer separates the engines. Measured wall-clock times
// (machine-dependent, so not in this table) are recorded in
// EXPERIMENTS.md and BENCH_large.{txt,json}.
func ExtIntraPar(o Options) ([]*report.Table, error) {
	shapes := o.IntraParShapes
	size := o.IntraParBytes
	net := asymmetricNet(o.CollectivePktCap)

	type cell struct {
		cycles  int64
		events  uint64
		windows uint64
		shards  int
	}
	cells, err := grid(o, len(shapes), len(intraParWorkers), func(r, w int) (cell, error) {
		spec := o.point(torus(shapes[r]), config.Enhanced, net)
		spec.System.IntraParallel = intraParWorkers[w]
		spec.System.PreferredSetSplits = 1
		h, inst, err := o.collective(spec, collectives.AllReduce, size)
		if err != nil {
			return cell{}, fmt.Errorf("w=%d: %w", intraParWorkers[w], err)
		}
		c := cell{cycles: int64(h.Duration()), events: inst.Eng.Fired()}
		if inst.Par != nil {
			for _, sh := range inst.Par.Shards() {
				c.events += sh.Fired()
			}
			c.windows = inst.Par.Windows()
			c.shards = len(inst.Par.Shards())
		}
		return c, nil
	})
	if err != nil {
		return nil, err
	}

	t := report.New("extintrapar",
		fmt.Sprintf("Intra-run parallel DES: %s enhanced all-reduce, serial vs partitioned (identical cycles = determinism)", report.Bytes(size)),
		"shape", "npus", "workers", "cycles", "events", "windows", "shards")
	for si, s := range shapes {
		for wi, workers := range intraParWorkers {
			c := cells[si][wi]
			// The golden file pins determinism; assert it here too so a
			// violation fails the sweep loudly, not just the golden diff.
			if c.cycles != cells[si][0].cycles {
				return nil, fmt.Errorf("extintrapar %v: %d cycles at %d workers, serial ran %d — intra-run parallelism changed results",
					s, c.cycles, workers, cells[si][0].cycles)
			}
			t.AddRow(torus(s),
				report.Int(int64(s[0]*s[1]*s[2])), report.Int(int64(workers)),
				report.Int(c.cycles), report.Int(int64(c.events)),
				report.Int(int64(c.windows)), report.Int(int64(c.shards)))
		}
	}
	return []*report.Table{t}, nil
}
