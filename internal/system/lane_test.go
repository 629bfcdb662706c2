package system

import (
	"testing"

	"astrasim/internal/collectives"
	"astrasim/internal/config"
	"astrasim/internal/topology"
)

// TestSendPathAllocsPerChunk pins the steady-state send path at zero
// allocations per message. A fast-backend 4x4x4 all-reduce at 64 chunks
// sends 4x the messages of the same run at 16 chunks; the extra
// allocations must be explained by the extra chunks alone — each chunk's
// own objects, plus up to one in-flight message per node that the
// message free list may have to grow for while the chunk is active.
func TestSendPathAllocsPerChunk(t *testing.T) {
	for _, backend := range []config.Backend{config.FastBackend, config.PacketBackend} {
		t.Run(backend.String(), func(t *testing.T) { testSendPathAllocsPerChunk(t, backend) })
	}
}

func testSendPathAllocsPerChunk(t *testing.T, backend config.Backend) {
	topo := torus(t, 4, 4, 4, topology.DefaultTorusConfig())
	run := func(splits int) (allocs float64, chunks int, msgs int64) {
		cfg := config.DefaultSystem()
		cfg.Backend = backend
		cfg.Algorithm = config.Enhanced
		cfg.PreferredSetSplits = splits
		allocs = testing.AllocsPerRun(3, func() {
			inst, err := NewInstance(topo, cfg, config.DefaultNetwork())
			if err != nil {
				t.Fatal(err)
			}
			h, err := inst.Sys.IssueCollective(collectives.AllReduce, 4<<20, "", nil)
			if err != nil {
				t.Fatal(err)
			}
			inst.Eng.Run()
			if !h.Done() {
				t.Fatal("all-reduce did not complete")
			}
			chunks, msgs = h.NumChunks(), h.ScheduledMessages()
		})
		return allocs, chunks, msgs
	}
	a16, c16, m16 := run(16)
	a64, c64, m64 := run(64)
	if c64 != 4*c16 || m64 != 4*m16 {
		t.Fatalf("64-way split ran %d chunks / %d messages, want 4x the 16-way %d / %d", c64, m64, c16, m16)
	}
	perChunk := float64(2 + topo.NumNPUs()) // chunk, node states, in-flight messages
	extra := a64 - a16
	if budget := perChunk * float64(c64-c16); extra > budget {
		t.Fatalf("%d more messages cost %.0f more allocations (%.0f -> %.0f), over the %.0f per-chunk budget for %d more chunks",
			m64-m16, extra, a16, a64, budget, c64-c16)
	}
	t.Logf("%d -> %d chunks, %d -> %d messages: %.0f -> %.0f allocations", c16, c64, m16, m64, a16, a64)
}

// TestWarmQueuesAllocFree: on a warmed System, the ready queue and the
// logical scheduling queues reuse their arrays, so a repeated collective
// allocates only its own state: the chunks, each chunk's per-node states
// and a fixed handful per collective. Two collectives are issued at once,
// so LIFO inserts the second at the head of a non-empty ready queue, and
// the LSQs run one chunk at a time, so every phase queues.
func TestWarmQueuesAllocFree(t *testing.T) {
	for _, backend := range []config.Backend{config.FastBackend, config.PacketBackend} {
		t.Run(backend.String(), func(t *testing.T) {
			cfg := config.DefaultSystem()
			cfg.Backend = backend
			cfg.LSQWidth = 1
			inst, err := NewInstance(torus(t, 4, 4, 4, topology.DefaultTorusConfig()), cfg, config.DefaultNetwork())
			if err != nil {
				t.Fatal(err)
			}
			chunks := 0
			run := func() {
				for i := 0; i < 2; i++ {
					h, err := inst.Sys.IssueCollective(collectives.AllReduce, 1<<20, "", nil)
					if err != nil {
						t.Fatal(err)
					}
					chunks += h.NumChunks()
				}
				inst.Eng.Run()
			}
			run() // warm the queues, the event arena and the network
			chunks = 0
			allocs := testing.AllocsPerRun(3, run)
			perRun := chunks / 4 // AllocsPerRun makes one warm-up call and 3 measured runs
			const perCollective = 16
			if budget := float64(2*perRun + 2*perCollective); allocs > budget {
				t.Fatalf("two warm collectives, %d chunks in all, allocate %.0f: over the budget of %.0f (2 per chunk, %d per collective)",
					perRun, allocs, budget, perCollective)
			}
			t.Logf("two warm collectives, %d chunks in all: %.0f allocations", perRun, allocs)
		})
	}
}
