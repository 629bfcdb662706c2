package noc_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"astrasim/internal/cli"
	"astrasim/internal/collectives"
	"astrasim/internal/config"
	"astrasim/internal/system"
)

// fastDigestCase is one fast-backend collective with its recorded result:
// the completion cycles, the events fired, and an FNV-64a digest of the
// per-phase queue and network delays, the per-class bytes and every
// link's Packets, Bytes and BusyCycles.
type fastDigestCase struct {
	spec   string
	alg    config.Algorithm
	splits int
	op     collectives.Op
	bytes  int64
	cycles uint64
	events uint64
	digest uint64
}

// fastDigestCorpus covers chunked multi-hop runs, where the fast backend's
// per-packet arrival events decide the result. Each row is the
// cmd/collectives run
//
//	collectives -backend fast -op <op> -topology <spec> -size <bytes>
//	    -algorithm <alg> -preferred-set-splits <splits>
//
// The values pin the fast backend's behaviour: never re-record them for
// a refactor.
var fastDigestCorpus = []fastDigestCase{
	// Packet runs 96,709 cycles here (ROADMAP item 3).
	{"hier:sw8,fc4,ring4", config.Baseline, 64, collectives.AllReduce, 4 << 20, 96699, 2129920, 0x4ea76f6dd49ac405},
	// Packet runs 532 cycles here: the known single-split divergence.
	{"sw:4x1", config.Enhanced, 1, collectives.AllReduce, 11902, 531, 192, 0x4bcb9d9a4414f7f5},
	{"a2a:4x8", config.Baseline, 64, collectives.AllToAll, 1 << 20, 20668, 155648, 0xcd555b0967c88180},
	{"so:2x2x2/4", config.Baseline, 64, collectives.AllReduce, 1 << 20, 204808, 86016, 0x589935b5db3be923},
	{"sw:8x4", config.Baseline, 64, collectives.AllGather, 1 << 20, 12927, 110592, 0xaebe690a0f3bd534},
	{"8x8x8", config.Baseline, 64, collectives.AllReduce, 1 << 20, 41133, 2752512, 0x4c26007875d173e9},
}

// fastDigest runs c on a fresh fast-backend instance and returns its
// cycles, fired events and digest.
func fastDigest(t *testing.T, c fastDigestCase) (cycles, events, digest uint64) {
	t.Helper()
	cfg := config.DefaultSystem()
	cfg.Backend = config.FastBackend
	cfg.Algorithm = c.alg
	cfg.PreferredSetSplits = c.splits
	topo, err := cli.BuildTopology(c.spec, cli.DefaultTopologyOptions(), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := system.NewInstance(topo, cfg, config.DefaultNetwork())
	if err != nil {
		t.Fatal(err)
	}
	h, err := inst.RunCollective(c.op, c.bytes)
	if err != nil {
		t.Fatal(err)
	}
	d := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		d.Write(buf[:])
	}
	put(uint64(h.Duration()))
	for i := 0; i <= h.NumPhases(); i++ {
		put(math.Float64bits(h.AvgQueueDelay(i)))
		put(math.Float64bits(h.AvgNetworkDelay(i)))
	}
	intra, inter, scaleOut := inst.Net.TotalBytesByClass()
	put(uint64(intra))
	put(uint64(inter))
	put(uint64(scaleOut))
	for _, l := range inst.Net.DebugLinks() {
		put(l.Stats.Packets)
		put(uint64(l.Stats.Bytes))
		put(uint64(l.Stats.BusyCycles))
	}
	return uint64(h.Duration()), inst.Eng.Fired(), d.Sum64()
}

// TestFastBackendDigest pins the fast backend's results, phase delays
// and link counters on the corpus above.
func TestFastBackendDigest(t *testing.T) {
	for _, c := range fastDigestCorpus {
		t.Run(fmt.Sprintf("%s/%v/%v/%d", c.spec, c.alg, c.op, c.bytes), func(t *testing.T) {
			cycles, events, digest := fastDigest(t, c)
			if cycles != c.cycles || events != c.events || digest != c.digest {
				t.Fatalf("got %d cycles, %d events, digest %#x; recorded %d, %d, %#x",
					cycles, events, digest, c.cycles, c.events, c.digest)
			}
		})
	}
}
