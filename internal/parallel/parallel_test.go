package parallel_test

import (
	"astrasim/internal/parallel"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"astrasim/internal/collectives"
	"astrasim/internal/config"
	"astrasim/internal/system"
	"astrasim/internal/topology"
)

func TestWorkersClamp(t *testing.T) {
	for _, tc := range []struct {
		in, want int
	}{
		{1, 1}, {4, 4}, {0, runtime.NumCPU()}, {-3, runtime.NumCPU()},
	} {
		if got := parallel.New(tc.in).Workers(); got != tc.want {
			t.Errorf("New(%d).Workers() = %d, want %d", tc.in, got, tc.want)
		}
	}
	var zero parallel.Runner
	if zero.Workers() != 1 {
		t.Errorf("zero parallel.Runner.Workers() = %d, want 1", zero.Workers())
	}
	if (*parallel.Runner)(nil).Workers() != 1 {
		t.Error("nil parallel.Runner.Workers() should be 1")
	}
	if parallel.Serial().Workers() != 1 {
		t.Error("Serial().Workers() should be 1")
	}
}

func TestMapOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 32} {
		r := parallel.New(workers)
		got, err := parallel.Map(r, 100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 100 {
			t.Fatalf("workers=%d: len = %d", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := parallel.Map(parallel.New(4), 0, func(int) (int, error) { return 0, errors.New("never") })
	if err != nil || got != nil {
		t.Fatalf("Map of 0 jobs = %v, %v; want nil, nil", got, err)
	}
}

func TestMapLowestIndexErrorWins(t *testing.T) {
	// Job 7 fails fast, job 2 fails slow: the reported error must be job
	// 2's regardless of completion order.
	r := parallel.New(4)
	_, err := parallel.Map(r, 10, func(i int) (int, error) {
		switch i {
		case 2:
			time.Sleep(20 * time.Millisecond)
			return 0, fmt.Errorf("job %d", i)
		case 7:
			return 0, fmt.Errorf("job %d", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "job 2" {
		t.Fatalf("err = %v, want job 2 (lowest index)", err)
	}
}

func TestMapAllJobsRunDespiteError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		_, err := parallel.Map(parallel.New(workers), 20, func(i int) (int, error) {
			ran.Add(1)
			if i == 0 {
				return 0, errors.New("first job fails")
			}
			return i, nil
		})
		if err == nil {
			t.Fatalf("workers=%d: expected error", workers)
		}
		if ran.Load() != 20 {
			t.Fatalf("workers=%d: ran %d jobs, want all 20 (parallel and serial must match)", workers, ran.Load())
		}
	}
}

func TestMapPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("workers=%d: panic did not propagate", workers)
				}
			}()
			parallel.Map(parallel.New(workers), 8, func(i int) (int, error) {
				if i == 3 {
					panic("boom")
				}
				return i, nil
			})
		}()
	}
}

func TestForEach(t *testing.T) {
	var sum atomic.Int64
	if err := parallel.ForEach(parallel.New(4), 50, func(i int) error {
		sum.Add(int64(i))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 49*50/2 {
		t.Fatalf("sum = %d, want %d", sum.Load(), 49*50/2)
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	var cur, peak atomic.Int64
	workers := 3
	if err := parallel.ForEach(parallel.New(workers), 30, func(int) error {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > int64(workers) {
		t.Fatalf("peak concurrency %d exceeded %d workers", p, workers)
	}
}

// TestSimulationJobsDeterministic runs the same batch of real simulator
// jobs serially and with several pool widths: every run's durations must
// be identical. This is the package-level half of the determinism
// contract (the experiments package asserts full CSV equality).
func TestSimulationJobsDeterministic(t *testing.T) {
	sizes := []int64{64 << 10, 256 << 10, 1 << 20, 256 << 10, 64 << 10, 1 << 20}
	run := func(workers int) []uint64 {
		t.Helper()
		topo, err := topology.NewTorus(2, 2, 2, topology.DefaultTorusConfig())
		if err != nil {
			t.Fatal(err)
		}
		cfg := config.DefaultSystem()
		net := config.DefaultNetwork()
		net.MaxPacketsPerMessage = 16
		out, err := parallel.Map(parallel.New(workers), len(sizes), func(i int) (uint64, error) {
			h, err := system.RunCollective(topo, cfg, net, collectives.AllReduce, sizes[i])
			if err != nil {
				return 0, err
			}
			return uint64(h.Duration()), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(1)
	for _, workers := range []int{2, 4, runtime.NumCPU()} {
		got := run(workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: job %d duration %d != serial %d", workers, i, got[i], want[i])
			}
		}
	}
}
