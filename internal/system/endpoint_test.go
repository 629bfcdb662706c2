package system_test

import (
	"math"
	"math/rand"
	"testing"

	"astrasim/internal/config"
	"astrasim/internal/eventq"
	"astrasim/internal/noc"
	"astrasim/internal/system"
	"astrasim/internal/topology"
)

// floatNMU is the endpoint cost model with no integer path: every
// message's cost runs through the scaled float arithmetic and its carry.
type floatNMU struct {
	busy         eventq.Time
	scale, carry float64
}

func (r *floatNMU) done(now, delay, extra eventq.Time) eventq.Time {
	exact := float64(delay+extra)*r.scale + r.carry
	cost := eventq.Time(exact)
	r.carry = exact - float64(cost)
	r.busy = max(now, r.busy) + cost
	return r.busy
}

// endpointOp is one step of an endpoint replay: set the straggler factor
// (when factor is non-zero), advance the clock by gap cycles, then charge
// one message with extra cycles on top of the endpoint delay.
type endpointOp struct {
	factor float64
	gap    eventq.Time
	extra  eventq.Time
}

// replayEndpoint runs ops against node 0's endpoint and against the float
// reference, and fails on the first completion cycle or carry that
// differs: the carry must match bit for bit, or a later factor change
// could round differently.
func replayEndpoint(t *testing.T, name string, ops []endpointOp) {
	t.Helper()
	topo, err := topology.NewTorus(2, 1, 1, topology.DefaultTorusConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.DefaultSystem()
	cfg.EndpointDelay = 11 // odd, so factor 1.5 leaves a half-cycle carry
	eng := eventq.New()
	net, err := noc.NewFast(eng, topo, config.DefaultNetwork())
	if err != nil {
		t.Fatal(err)
	}
	s, err := system.New(eng, topo, net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := floatNMU{scale: 1}
	for i, op := range ops {
		if op.factor != 0 {
			if err := s.SetNodeStragglerFactor(0, op.factor); err != nil {
				t.Fatal(err)
			}
			ref.scale = op.factor
		}
		now := eng.RunUntil(eng.Now() + op.gap)
		want := ref.done(now, eventq.Time(cfg.EndpointDelay), op.extra)
		got, carry := system.EndpointDoneForTest(s, 0, op.extra)
		if got != want || math.Float64bits(carry) != math.Float64bits(ref.carry) {
			t.Fatalf("%s: message %d (factor %v, extra %d, at %d) done at %d with carry %v, float reference %d with %v",
				name, i, ref.scale, op.extra, now, got, carry, want, ref.carry)
		}
	}
}

// TestEndpointIntegerPathMatchesFloat pins the integer endpoint path's
// precondition: a node at factor 1 with no carry costs exactly the
// endpoint delay plus extra, as the float arithmetic would. Sequences
// under factors 1, 1.5 and 0.7, back to back and with idle gaps, and a
// reset to 1 while a carry is pending, must complete every message at
// the float reference's cycle.
func TestEndpointIntegerPathMatchesFloat(t *testing.T) {
	msgs := func(n int, gap, extra eventq.Time) []endpointOp {
		ops := make([]endpointOp, n)
		for i := range ops {
			ops[i] = endpointOp{gap: gap, extra: extra}
		}
		return ops
	}
	withFactor := func(f float64, ops []endpointOp) []endpointOp {
		ops[0].factor = f
		return ops
	}
	cases := map[string][]endpointOp{
		"nominal":       msgs(8, 3, 0),
		"nominal+extra": msgs(8, 40, 500),
		"factor 1.5":    withFactor(1.5, msgs(8, 0, 0)),
		"factor 0.7":    withFactor(0.7, msgs(8, 5, 7)),
		"reset with carry": append(withFactor(1.5, msgs(1, 0, 0)),
			withFactor(1, msgs(8, 2, 0))...),
		"reset after 0.7": append(withFactor(0.7, msgs(3, 0, 0)),
			withFactor(1, msgs(8, 0, 500))...),
	}
	rng := rand.New(rand.NewSource(1))
	factors := []float64{1, 1.5, 0.7}
	var mixed []endpointOp
	for range 500 {
		op := endpointOp{gap: eventq.Time(rng.Intn(30)), extra: []eventq.Time{0, 0, 3, 500}[rng.Intn(4)]}
		if rng.Intn(8) == 0 {
			op.factor = factors[rng.Intn(len(factors))]
		}
		mixed = append(mixed, op)
	}
	cases["mixed"] = mixed
	for name, ops := range cases {
		replayEndpoint(t, name, ops)
	}
}
