package experiments

import (
	"fmt"
	"sync"

	"astrasim/internal/cli"
	"astrasim/internal/compute"
	"astrasim/internal/config"
	"astrasim/internal/models"
	"astrasim/internal/report"
	"astrasim/internal/system"
	"astrasim/internal/workload"
)

// trainingPoint returns the spec of a training point on the MxNxK torus
// of shape: the enhanced collective algorithm, Table IV network parameters
// and policy.
func (o Options) trainingPoint(shape [3]int, policy config.SchedulingPolicy) cli.RunSpec {
	s := o.point(torus(shape), config.Enhanced, asymmetricNet(o.TrainingPktCap))
	s.System.SchedulingPolicy = policy
	return s
}

// resnetCache memoizes ResNet-50 runs shared by Figs. 14, 15 and 16.
// Parallel sweeps hit it from several workers at once, so each key gets a
// single-flight entry: the first caller simulates, concurrent callers for
// the same key block on the entry's Once, distinct keys run concurrently.
var (
	resnetMu    sync.Mutex
	resnetCache = map[string]*resnetEntry{}
)

type resnetEntry struct {
	once sync.Once
	res  workload.Result
	err  error
}

func resnetRun(o Options, shape [3]int, policy config.SchedulingPolicy, scale float64) (workload.Result, error) {
	scale *= o.TrainComputeScale
	key := fmt.Sprintf("%v/%v/%d/%d/%d/%g/%v", shape, policy, o.Passes, o.Batch, o.TrainingPktCap, scale, o)
	resnetMu.Lock()
	e := resnetCache[key]
	if e == nil {
		e = &resnetEntry{}
		resnetCache[key] = e
	}
	resnetMu.Unlock()
	e.once.Do(func() {
		def := models.ResNet50(compute.Default(), o.Batch)
		if scale != 1 {
			def = def.ScaleCompute(scale)
		}
		e.res, e.err = o.train(o.trainingPoint(shape, policy), def)
	})
	return e.res, e.err
}

// Fig13 reports the Transformer's layer-wise raw communication time for
// two hybrid-parallel training iterations on a 2x2x2 torus (§V-E).
func Fig13(o Options) ([]*report.Table, error) {
	def := models.Transformer(compute.Default(), o.Batch, o.SeqLen).ScaleCompute(o.TrainComputeScale)
	res, err := o.train(o.trainingPoint([3]int{2, 2, 2}, config.LIFO), def)
	if err != nil {
		return nil, err
	}
	t := report.New("fig13",
		fmt.Sprintf("Transformer layer-wise raw communication time, %d iterations, 2x2x2 torus, hybrid-parallel (cycles)", res.Passes),
		"layer", "fwd(activations)", "input-grad", "weight-grad", "total")
	for _, l := range res.Layers {
		t.AddRow(l.Name,
			report.Int(int64(l.FwdCommCycles)), report.Int(int64(l.IGCommCycles)),
			report.Int(int64(l.WGCommCycles)), report.Int(int64(l.TotalCommCycles())))
	}
	return []*report.Table{t}, nil
}

// Fig14 reports ResNet-50's layer-wise raw communication time for two
// data-parallel iterations on a 2x4x4 torus (§V-E): only weight gradients
// are communicated.
func Fig14(o Options) ([]*report.Table, error) {
	res, err := resnetRun(o, [3]int{2, 4, 4}, config.LIFO, 1)
	if err != nil {
		return nil, err
	}
	t := report.New("fig14",
		fmt.Sprintf("ResNet-50 layer-wise raw communication time, %d iterations, 2x4x4 torus, data-parallel (cycles)", res.Passes),
		"layer", "weight-grad-comm")
	for _, l := range res.Layers {
		t.AddRow(l.Name, report.Int(int64(l.WGCommCycles)))
	}
	return []*report.Table{t}, nil
}

// Fig15 reports ResNet-50's layer-wise compute time, raw communication
// time, and exposed (non-overlapped) communication time (§V-F).
func Fig15(o Options) ([]*report.Table, error) {
	res, err := resnetRun(o, [3]int{2, 4, 4}, config.LIFO, 1)
	if err != nil {
		return nil, err
	}
	t := report.New("fig15",
		"ResNet-50 layer-wise compute, raw comm, and exposed comm (cycles, 2x4x4 torus)",
		"layer", "compute", "comm", "exposed")
	for _, l := range res.Layers {
		t.AddRow(l.Name,
			report.Int(int64(l.ComputeCycles)),
			report.Int(int64(l.TotalCommCycles())),
			report.Int(int64(l.ExposedCycles)))
	}
	return []*report.Table{t}, nil
}

// Fig16 reports ResNet-50's layer-wise queue/network delay breakdown for
// both LIFO and FIFO scheduling (§V-F: the two behave nearly identically
// because the fast local dimension enforces in-order chunk execution).
func Fig16(o Options) ([]*report.Table, error) {
	policies := []config.SchedulingPolicy{config.LIFO, config.FIFO}
	results, err := grid(o, len(policies), 1, func(r, _ int) (workload.Result, error) {
		return resnetRun(o, [3]int{2, 4, 4}, policies[r], 1)
	})
	if err != nil {
		return nil, err
	}
	var tables []*report.Table
	for pi, policy := range policies {
		res := results[pi][0]
		t := report.New("fig16-"+policy.String(),
			fmt.Sprintf("ResNet-50 layer-wise delay breakdown, %s scheduling (avg cycles per chunk)", policy),
			"layer",
			"QueueP0", "QueueP1", "QueueP2", "QueueP3", "QueueP4",
			"NetP1", "NetP2", "NetP3", "NetP4")
		for _, l := range res.Layers {
			row := []string{l.Name}
			for p := 0; p <= 4; p++ {
				row = append(row, report.Float(avgHandleStat(l.WGHandles, p, true)))
			}
			for p := 1; p <= 4; p++ {
				row = append(row, report.Float(avgHandleStat(l.WGHandles, p, false)))
			}
			t.AddRow(row...)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// avgHandleStat averages a per-phase queue or network delay across a
// layer's collective handles.
func avgHandleStat(handles []*system.Handle, phase int, queue bool) float64 {
	if len(handles) == 0 {
		return 0
	}
	var sum float64
	for _, h := range handles {
		if queue {
			sum += h.AvgQueueDelay(phase)
		} else {
			sum += h.AvgNetworkDelay(phase)
		}
	}
	return sum / float64(len(handles))
}

// Fig17 reports ResNet-50's compute vs exposed-communication ratio as the
// torus grows from 8 to 128 NPUs (§V-F: 4.1% exposed at 8 NPUs rising to
// 25.2% at 128).
func Fig17(o Options) ([]*report.Table, error) {
	results, err := grid(o, len(o.Fig17Shapes), 1, func(r, _ int) (workload.Result, error) {
		return resnetRun(o, o.Fig17Shapes[r], config.LIFO, 1)
	})
	if err != nil {
		return nil, err
	}
	t := report.New("fig17",
		"ResNet-50 compute vs exposed communication ratio across system sizes (2x4x4 torus family)",
		"topology", "npus", "total-cycles", "compute%", "exposed%")
	for si, s := range o.Fig17Shapes {
		res := results[si][0]
		computeRatio := float64(res.TotalCompute()) / float64(res.TotalCycles)
		t.AddRow(torus(s), report.Int(int64(s[0]*s[1]*s[2])),
			report.Int(int64(res.TotalCycles)),
			report.Percent(computeRatio), report.Percent(res.ExposedRatio()))
	}
	return []*report.Table{t}, nil
}

// Fig18 reports how the exposed-communication ratio changes with NPU
// compute power on the 2x4x4 system (§V-F: <1% at 0.5x, 63.9% at 4x).
func Fig18(o Options) ([]*report.Table, error) {
	results, err := grid(o, len(o.Fig18Scales), 1, func(r, _ int) (workload.Result, error) {
		return resnetRun(o, [3]int{2, 4, 4}, config.LIFO, o.Fig18Scales[r])
	})
	if err != nil {
		return nil, err
	}
	t := report.New("fig18",
		"ResNet-50 exposed communication ratio vs compute power (2x4x4 torus)",
		"compute-power", "total-cycles", "compute%", "exposed%")
	for si, scale := range o.Fig18Scales {
		res := results[si][0]
		computeRatio := float64(res.TotalCompute()) / float64(res.TotalCycles)
		t.AddRow(fmt.Sprintf("%gx", scale),
			report.Int(int64(res.TotalCycles)),
			report.Percent(computeRatio), report.Percent(res.ExposedRatio()))
	}
	return []*report.Table{t}, nil
}
