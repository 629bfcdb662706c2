package astrasim_test

import (
	"runtime/debug"
	"testing"

	"astrasim"
)

// The memory tier must be free when unused: arming a pool on a platform
// whose run touches no remote tensors changes nothing — identical cycles
// and identical allocation counts on the BenchmarkAllReduce4x4x4_4MB
// path. This pins the integration style: the tier is consulted only at
// workload update and graph MEM/COMM resolution, never on the collective
// hot path.
func TestRemoteMemoryZeroOverheadWhenUnused(t *testing.T) {
	if testing.Short() {
		t.Skip("repeated 4MB all-reduce runs; skipped with -short")
	}
	build := func(opts ...astrasim.Option) *astrasim.Platform {
		t.Helper()
		opts = append([]astrasim.Option{astrasim.WithAlgorithm(astrasim.Enhanced)}, opts...)
		p, err := astrasim.NewTorusPlatform(4, 4, 4, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	plain := build()
	armed := build(astrasim.WithRemoteMemory(50, 600))
	run := func(p *astrasim.Platform) uint64 {
		res, err := p.RunCollective(astrasim.AllReduce, 4<<20)
		if err != nil {
			t.Fatal(err)
		}
		return uint64(res.Duration())
	}
	if pc, ac := run(plain), run(armed); pc != ac {
		t.Fatalf("armed pool changed a collective-only run: %d vs %d cycles", ac, pc)
	}
	// Keep the collector off while counting. Each GC cycle wakes the
	// standard library's cleanup of its unique-value maps (net/netip keeps
	// one), which allocates, and AllocsPerRun counts every allocation in
	// the process: a cycle inside one measurement but not the other moved
	// the counts apart by a few objects.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	plainAllocs := testing.AllocsPerRun(3, func() { run(plain) })
	armedAllocs := testing.AllocsPerRun(3, func() { run(armed) })
	if plainAllocs != armedAllocs {
		t.Fatalf("armed pool changed the allocation profile: %.0f vs %.0f allocs/run", armedAllocs, plainAllocs)
	}
}
