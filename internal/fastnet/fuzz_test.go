package fastnet_test

// FuzzBackendEquivalence widens the fixed differential corpus of
// TestFastExactAcrossConfigs to random uncongested points: a fabric family
// with small dimension sizes, an op, an algorithm and a byte count, run as
// a single chunk. The packet and fast backends must agree exactly on
// completion cycles and per-class bytes, and both must equal the oracle's
// Predict whenever the oracle accepts the case.

import (
	"fmt"
	"strings"
	"testing"

	"astrasim/internal/cli"
	"astrasim/internal/config"
	"astrasim/internal/oracle"
)

// fuzzDraw consumes a bounded choice from a packed integer.
type fuzzDraw struct{ v uint64 }

func (d *fuzzDraw) take(n int) int {
	r := int(d.v % uint64(n))
	d.v /= uint64(n)
	return r
}

// fuzzTopoSpec decodes a topology spec from a family selector and packed
// shape bits. Every dimension is 1-4 wide, so a spec builds at most 64
// NPUs (the 4D torus and scale-out families at most 81 and 64).
func fuzzTopoSpec(family uint8, shape uint64) string {
	d := &fuzzDraw{shape}
	dim := func() int { return 1 + d.take(4) }
	switch family % 7 {
	case 0:
		return fmt.Sprintf("%dx%dx%d", dim(), dim(), dim())
	case 1:
		return fmt.Sprintf("%dx%dx%dx%d", 1+d.take(3), 1+d.take(3), 1+d.take(3), 1+d.take(3))
	case 2:
		return fmt.Sprintf("%dx%d", dim(), dim())
	case 3:
		return fmt.Sprintf("a2a:%dx%d", dim(), dim())
	case 4:
		return fmt.Sprintf("sw:%dx%d", dim(), 1+d.take(3))
	case 5:
		return fmt.Sprintf("so:%dx%dx1/%d", 1+d.take(2), 1+d.take(2), 2+d.take(2))
	}
	kinds := []string{"ring", "fc", "sw"}
	parts := make([]string, 1+d.take(3))
	for i := range parts {
		parts[i] = fmt.Sprintf("%s%dx%d", kinds[d.take(3)], dim(), 1+d.take(2))
	}
	return "hier:" + strings.Join(parts, ",")
}

func FuzzBackendEquivalence(f *testing.F) {
	// hier:sw3x1, all-reduce of 4007 B: the fast backend once finished 2
	// cycles early because it ordered same-cycle switch arrivals by send
	// time rather than by upstream serialization.
	f.Add(uint8(6), uint64(24), uint8(2), false, uint32(4006))
	f.Add(uint8(0), uint64(29), uint8(2), true, uint32(1<<20-1)) // 2x4x2
	f.Add(uint8(1), uint64(40), uint8(3), false, uint32(65535))  // 2x2x2x2
	f.Add(uint8(4), uint64(6), uint8(0), true, uint32(4399))     // sw:3x2
	f.Add(uint8(5), uint64(3), uint8(1), false, uint32(12344))   // so:2x2x1/2
	f.Fuzz(func(t *testing.T, family uint8, shape uint64, opByte uint8, enhanced bool, bytes uint32) {
		spec := fuzzTopoSpec(family, shape)
		op := corpusOps[int(opByte)%len(corpusOps)]
		alg := config.Baseline
		if enhanced {
			alg = config.Enhanced
		}
		setBytes := 1 + int64(bytes%(1<<20))
		t.Logf("%s %v %v %d B", spec, alg, op, setBytes)

		pkt, pktBytes := runBackend(t, config.PacketBackend, spec, alg, 1, op, setBytes)
		fast, fastBytes := runBackend(t, config.FastBackend, spec, alg, 1, op, setBytes)
		if fast.Duration() != pkt.Duration() {
			t.Fatalf("fast backend ran %d cycles, packet backend %d", fast.Duration(), pkt.Duration())
		}
		if fastBytes != pktBytes {
			t.Fatalf("fast backend carried %v bytes per class, packet backend %v", fastBytes, pktBytes)
		}

		cfg := config.DefaultSystem()
		cfg.Algorithm = alg
		cfg.PreferredSetSplits = 1
		topo, err := cli.BuildTopology(spec, cli.DefaultTopologyOptions(), &cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := oracle.NewModel(topo, cfg, config.DefaultNetwork())
		if err != nil {
			t.Fatal(err)
		}
		pred, err := m.Predict(op, setBytes)
		if err != nil {
			return // outside the oracle's exact domain
		}
		if pred.Cycles != pkt.Duration() {
			t.Fatalf("oracle predicted %d cycles, both backends ran %d", pred.Cycles, pkt.Duration())
		}
	})
}
