package noc_test

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"astrasim/internal/cli"
	"astrasim/internal/collectives"
	"astrasim/internal/config"
	"astrasim/internal/eventq"
	"astrasim/internal/graph"
	"astrasim/internal/modelgen"
	"astrasim/internal/system"
	"astrasim/internal/topology"
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

// fastDigestCorpus covers chunked multi-hop runs, where the order of the
// fast backend's per-packet arrivals decides the result. Each row is the
// cmd/collectives run
//
//	collectives -backend fast -op <op> -topology <spec> -size <bytes>
//	    -algorithm <alg> -preferred-set-splits <splits>
//
// The cycles and digests pin the fast backend's behaviour: never
// re-record them for a refactor. The events column counts the work: it
// drops when arrivals stop being events (switch-fed final hops are
// records, unbounded.go) while cycles and digests hold.
var fastDigestCorpus = []fastDigestCase{
	// Packet runs 96,709 cycles here (ROADMAP item 3).
	{"hier:sw8,fc4,ring4", config.Baseline, 64, collectives.AllReduce, 4 << 20, 96699, 344064, 0x4ea76f6dd49ac405},
	// Packet runs 532 cycles here: the known single-split divergence.
	{"sw:4x1", config.Enhanced, 1, collectives.AllReduce, 11902, 531, 72, 0x4bcb9d9a4414f7f5},
	{"a2a:4x8", config.Baseline, 64, collectives.AllToAll, 1 << 20, 20668, 55296, 0xcd555b0967c88180},
	{"so:2x2x2/4", config.Baseline, 64, collectives.AllReduce, 1 << 20, 204808, 61440, 0x589935b5db3be923},
	{"sw:8x4", config.Baseline, 64, collectives.AllGather, 1 << 20, 12927, 61440, 0xaebe690a0f3bd534},
	{"8x8x8", config.Baseline, 64, collectives.AllReduce, 1 << 20, 41133, 2752512, 0x4c26007875d173e9},
}

// fastInstance builds a fresh fast-backend instance of spec.
func fastInstance(t *testing.T, spec string, alg config.Algorithm, splits int) *system.Instance {
	t.Helper()
	cfg := config.DefaultSystem()
	cfg.Backend = config.FastBackend
	cfg.Algorithm = alg
	cfg.PreferredSetSplits = splits
	topo, err := cli.BuildTopology(spec, cli.DefaultTopologyOptions(), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := system.NewInstance(topo, cfg, config.DefaultNetwork())
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// digester hashes a run's results with FNV-64a.
type digester struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigester() *digester { return &digester{h: fnv.New64a()} }

func (d *digester) put(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

// putNet hashes the network's per-class bytes and every link's Packets,
// Bytes and BusyCycles as a read from outside the engine sees them.
func (d *digester) putNet(inst *system.Instance) {
	intra, inter, scaleOut := inst.Net.TotalBytesByClass()
	d.put(uint64(intra))
	d.put(uint64(inter))
	d.put(uint64(scaleOut))
	for _, l := range inst.Net.DebugLinks() {
		d.put(l.Stats.Packets)
		d.put(uint64(l.Stats.Bytes))
		d.put(uint64(l.Stats.BusyCycles))
	}
}

// fastDigest runs c on a fresh fast-backend instance and returns its
// cycles, fired events and digest.
func fastDigest(t *testing.T, c fastDigestCase) (cycles, events, digest uint64) {
	t.Helper()
	inst := fastInstance(t, c.spec, c.alg, c.splits)
	h, err := inst.RunCollective(c.op, c.bytes)
	if err != nil {
		t.Fatal(err)
	}
	d := newDigester()
	d.put(uint64(h.Duration()))
	for i := 0; i <= h.NumPhases(); i++ {
		d.put(math.Float64bits(h.AvgQueueDelay(i)))
		d.put(math.Float64bits(h.AvgNetworkDelay(i)))
	}
	d.putNet(inst)
	return uint64(h.Duration()), inst.Eng.Fired(), d.h.Sum64()
}

// fastDigestRun is a fast-backend run the collective corpus cannot
// express: drive runs it on inst, hashing what it observes into d, and
// returns its completion cycle. The network state at the end is hashed
// after it.
type fastDigestRun struct {
	name   string
	spec   string
	drive  func(t *testing.T, inst *system.Instance, d *digester) uint64
	cycles uint64
	events uint64
	digest uint64
}

// fastDigestRuns covers the other traffic that crosses switch hops on
// the fast backend: a compiled model's replay (the service's model
// jobs), point-to-point routes that travel on past a switch, and link
// reads taken while a run is in flight.
var fastDigestRuns = []fastDigestRun{
	{"tinylm-dp8_zero1", "a2a:2x4", driveModel, 786353, 191573, 0xe8a5fee4d4b758e2},
	{"p2p-past-switch", "hier:sw8,fc4,ring4", driveP2P, 43961, 344648, 0xe35e524250d8ee40},
	{"mid-run-read", "a2a:4x8", driveMidRun, 20668, 55296, 0xff5e9754e08d6599},
}

// driveModel replays one training step of tinylm under dp8_zero1.
func driveModel(t *testing.T, inst *system.Instance, d *digester) uint64 {
	spec, err := modelgen.LoadSpec("../../workloads/models/tinylm.model.json")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := modelgen.LoadPlan("../../workloads/models/dp8_zero1.plan.json")
	if err != nil {
		t.Fatal(err)
	}
	g, err := modelgen.Compile(spec, plan, modelgen.Options{Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := graph.Run(inst, g)
	if err != nil {
		t.Fatal(err)
	}
	d.put(uint64(res.TotalCycles))
	for _, l := range res.Layers {
		d.put(l.ComputeCycles)
		d.put(l.TotalCommCycles())
		d.put(l.ExposedCycles)
	}
	return uint64(res.TotalCycles)
}

// p2pPastSwitch lists (src, dst, bytes) sends whose routes leave a
// switch at a position other than the last: 0->9 runs up, down and over
// a fully-connected link, 0->41 adds a ring hop.
var p2pPastSwitch = [][3]int64{{0, 9, 200 << 10}, {0, 41, 96 << 10}, {0, 17, 64 << 10}, {0, 10, 300 << 10}}

// driveP2P sends p2pPastSwitch while a 1 MiB all-reduce loads the same
// switch ports, and hashes each send's delivery cycle.
func driveP2P(t *testing.T, inst *system.Instance, d *digester) uint64 {
	links := inst.Topo.Links()
	r := topology.NewRouter(inst.Topo)
	delivered := make([]uint64, len(p2pPastSwitch))
	for i, s := range p2pPastSwitch {
		src, dst := topology.Node(s[0]), topology.Node(s[1])
		path := r.Route(src, dst, i+1)
		past := false
		for _, id := range path[:len(path)-1] {
			past = past || int(links[id].Src) >= inst.Topo.NumNPUs()
		}
		if !past {
			t.Fatalf("route %d->%d %v does not continue past a switch hop", src, dst, path)
		}
		if err := inst.Sys.SendPointToPoint(src, dst, s[2], func() { delivered[i] = uint64(inst.Eng.Now()) }); err != nil {
			t.Fatal(err)
		}
	}
	h, err := inst.Sys.IssueCollective(collectives.AllReduce, 1<<20, "load", nil)
	if err != nil {
		t.Fatal(err)
	}
	end := inst.Eng.Run()
	if !h.Done() {
		t.Fatal("all-reduce did not complete")
	}
	for _, c := range delivered {
		d.put(c)
	}
	d.put(uint64(h.Duration()))
	return uint64(end)
}

// driveMidRun stops a 1 MiB all-to-all at midRunReads and hashes the
// network as each read sees it, then finishes the run.
func driveMidRun(t *testing.T, inst *system.Instance, d *digester) uint64 {
	h, err := inst.Sys.IssueCollective(collectives.AllToAll, 1<<20, "a2a", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range midRunReads {
		inst.Eng.RunUntil(eventq.Time(at))
		d.putNet(inst)
		d.put(uint64(inst.Net.LinkStatsFor(topology.LinkID(at % uint64(len(inst.Topo.Links())))).Packets))
	}
	inst.Eng.Run()
	if !h.Done() {
		t.Fatal("all-to-all did not complete")
	}
	return uint64(h.Duration())
}

// midRunReads are cycles inside driveMidRun's 20,668-cycle all-to-all.
var midRunReads = []uint64{777, 5003, 12345, 20000}

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
	for _, c := range fastDigestRuns {
		t.Run(c.spec+"/"+c.name, func(t *testing.T) {
			inst := fastInstance(t, c.spec, config.Baseline, 64)
			d := newDigester()
			cycles := c.drive(t, inst, d)
			d.putNet(inst)
			events, digest := inst.Eng.Fired(), d.h.Sum64()
			if cycles != c.cycles || events != c.events || digest != c.digest {
				t.Fatalf("got %d cycles, %d events, digest %#x; recorded %d, %d, %#x",
					cycles, events, digest, c.cycles, c.events, c.digest)
			}
		})
	}
}
