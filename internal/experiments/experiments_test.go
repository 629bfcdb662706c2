package experiments

import (
	"strconv"
	"strings"
	"testing"

	"astrasim/internal/cli"
	"astrasim/internal/cli/clitest"
	"astrasim/internal/faults"
	"astrasim/internal/report"
)

// cell parses a numeric table cell.
func cell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(s, "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("non-numeric cell %q", s)
	}
	return v
}

func TestFig9Shapes(t *testing.T) {
	tables, err := Fig9(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("tables = %d, want 2", len(tables))
	}
	a2aColl, ar := tables[0], tables[1]
	// All-to-all collective: the alltoall topology always wins. At large
	// sizes its advantage approaches the 3.5x bandwidth ratio (torus
	// relays (N-1)/2 x the data).
	for _, row := range a2aColl.Rows {
		alltoall, torus := cell(t, row[1]), cell(t, row[2])
		if alltoall >= torus {
			t.Errorf("fig09a %s: alltoall %v not faster than torus %v", row[0], alltoall, torus)
		}
	}
	last := a2aColl.Rows[len(a2aColl.Rows)-1]
	if r := cell(t, last[1]) / cell(t, last[2]); r < 0.25 || r > 0.40 {
		t.Errorf("fig09a %s: alltoall/torus = %v, want ~1/3.5 (bandwidth bound)", last[0], r)
	}
	// All-reduce crossover: alltoall wins small messages (fewer latency
	// steps), torus wins large ones by ~8/7 (alltoall leaves one of the
	// eight links unused).
	first := ar.Rows[0]
	if cell(t, first[1]) >= cell(t, first[2]) {
		t.Errorf("fig09b %s: alltoall %v should win at small size vs torus %v",
			first[0], cell(t, first[1]), cell(t, first[2]))
	}
	last = ar.Rows[len(ar.Rows)-1]
	if r := cell(t, last[1]) / cell(t, last[2]); r < 1.03 || r > 1.30 {
		t.Errorf("fig09b %s: alltoall/torus = %v, want ~8/7 at large size", last[0], r)
	}
}

func TestFig10Shapes(t *testing.T) {
	tables, err := Fig10(Quick())
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	last := rows[len(rows)-1]
	// Columns: size, 1x64x1, 1x8x8, 2x8x4, 4x4x4. At large sizes:
	// 2D (1x8x8) beats 1D (1x64x1); 2x8x4 is worse than 1x8x8
	// (more data, same bottleneck ring).
	d1, d2, d2b := cell(t, last[1]), cell(t, last[2]), cell(t, last[3])
	if d2 >= d1 {
		t.Errorf("fig10 %s: 1x8x8 (%v) should beat 1x64x1 (%v)", last[0], d2, d1)
	}
	if d2b <= d2 {
		t.Errorf("fig10 %s: 2x8x4 (%v) should be worse than 1x8x8 (%v)", last[0], d2b, d2)
	}
}

func TestFig11Shapes(t *testing.T) {
	tables, err := Fig11(Quick())
	if err != nil {
		t.Fatal(err)
	}
	ar := tables[0]
	for _, row := range ar.Rows {
		sym, asym, enh := cell(t, row[1]), cell(t, row[2]), cell(t, row[3])
		if asym >= sym {
			t.Errorf("fig11a %s: asymmetric (%v) should beat symmetric (%v)", row[0], asym, sym)
		}
		if enh >= asym {
			t.Errorf("fig11a %s: enhanced (%v) should beat asymmetric baseline (%v)", row[0], enh, asym)
		}
	}
	for _, row := range tables[1].Rows {
		if cell(t, row[2]) >= cell(t, row[1]) {
			t.Errorf("fig11b %s: asymmetric all-to-all (%v) should beat symmetric (%v)",
				row[0], cell(t, row[2]), cell(t, row[1]))
		}
	}
}

func TestFig12Shapes(t *testing.T) {
	tables, err := Fig12(Quick())
	if err != nil {
		t.Fatal(err)
	}
	total, breakdown := tables[0], tables[1]
	if len(total.Rows) != 4 || len(breakdown.Rows) != 4 {
		t.Fatalf("rows = %d/%d, want 4 each", len(total.Rows), len(breakdown.Rows))
	}
	// Communication time generally increases with module count; the
	// largest system must be the slowest.
	first := cell(t, total.Rows[0][2])
	last := cell(t, total.Rows[3][2])
	if last <= first {
		t.Errorf("fig12a: 2x4x8 (%v) should be slower than 2x2x2 (%v)", last, first)
	}
	// Breakdown rows must contain nonzero network time in phase 2.
	for _, row := range breakdown.Rows {
		if cell(t, row[7]) <= 0 { // NetP2
			t.Errorf("fig12b %s: zero network P2 time", row[0])
		}
	}
}

func TestFig13Rows(t *testing.T) {
	tables, err := Fig13(Quick())
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8 transformer layers", len(rows))
	}
	// Encoders (rows 1..6) communicate in all three passes; embedding
	// (row 0) has no activation communication.
	if cell(t, rows[0][1]) != 0 {
		t.Error("embedding should have no forward comm")
	}
	for i := 1; i <= 6; i++ {
		if cell(t, rows[i][1]) <= 0 || cell(t, rows[i][2]) <= 0 || cell(t, rows[i][3]) <= 0 {
			t.Errorf("encoder row %d missing comm: %v", i, rows[i])
		}
	}
	// Fig. 13: "communication latency remains uniform across layers
	// 1-6". The strictly dependent forward activations are near-equal;
	// totals wiggle with congestion but stay within a factor of two of
	// the encoder mean.
	fwdBase := cell(t, rows[1][1])
	var totalSum float64
	for i := 1; i <= 6; i++ {
		fwd := cell(t, rows[i][1])
		if fwd < fwdBase*0.9 || fwd > fwdBase*1.1 {
			t.Errorf("encoder %d fwd comm %v deviates >10%% from encoder 1 (%v)", i, fwd, fwdBase)
		}
		totalSum += cell(t, rows[i][4])
	}
	mean := totalSum / 6
	for i := 1; i <= 6; i++ {
		v := cell(t, rows[i][4])
		if v < mean*0.5 || v > mean*2 {
			t.Errorf("encoder %d total comm %v outside [0.5, 2]x encoder mean %v", i, v, mean)
		}
	}
}

func TestFig14Fig15Rows(t *testing.T) {
	tables, err := Fig14(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Rows) != 50 {
		t.Fatalf("fig14 rows = %d, want 50 ResNet layers", len(tables[0].Rows))
	}
	t15, err := Fig15(Quick())
	if err != nil {
		t.Fatal(err)
	}
	var compute, comm, exposed float64
	for _, row := range t15[0].Rows {
		compute += cell(t, row[1])
		comm += cell(t, row[2])
		exposed += cell(t, row[3])
	}
	if compute <= 0 || comm <= 0 {
		t.Fatalf("fig15 totals compute=%v comm=%v", compute, comm)
	}
	if exposed > comm {
		t.Errorf("exposed comm (%v) cannot exceed raw comm (%v)", exposed, comm)
	}
}

func TestFig16BothPolicies(t *testing.T) {
	tables, err := Fig16(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("tables = %d, want LIFO + FIFO", len(tables))
	}
	for _, tb := range tables {
		if len(tb.Rows) != 50 {
			t.Errorf("%s rows = %d, want 50", tb.ID, len(tb.Rows))
		}
	}
}

func TestFig17ExposureGrowsWithScale(t *testing.T) {
	tables, err := Fig17(Quick())
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	if len(rows) < 2 {
		t.Fatalf("rows = %d, want >= 2", len(rows))
	}
	small := cell(t, rows[0][4])
	big := cell(t, rows[len(rows)-1][4])
	if big < small {
		t.Errorf("exposed%% should grow with system size: %v -> %v", small, big)
	}
}

func TestFig18ExposureGrowsWithComputePower(t *testing.T) {
	tables, err := Fig18(Quick())
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	lo := cell(t, rows[0][3])
	hi := cell(t, rows[len(rows)-1][3])
	if hi <= lo {
		t.Errorf("exposed%% should grow with compute power: %v -> %v", lo, hi)
	}
}

func TestFiguresRegistryComplete(t *testing.T) {
	figs := Figures()
	if len(figs) != 10 {
		t.Fatalf("figures = %d, want 10 (fig 9 through 18)", len(figs))
	}
	seen := map[string]bool{}
	for _, f := range figs {
		if f.Run == nil || f.ID == "" {
			t.Errorf("incomplete figure entry %+v", f)
		}
		if seen[f.ID] {
			t.Errorf("duplicate figure id %s", f.ID)
		}
		seen[f.ID] = true
	}
}

func TestExtensionsRun(t *testing.T) {
	o := Quick()
	for _, f := range Extensions() {
		tables, err := f.Run(o)
		if err != nil {
			t.Fatalf("%s: %v", f.ID, err)
		}
		if len(tables) == 0 {
			t.Fatalf("%s: no tables", f.ID)
		}
		for _, tb := range tables {
			if len(tb.Rows) == 0 {
				t.Errorf("%s/%s: empty table", f.ID, tb.ID)
			}
		}
	}
}

// Mapping study shape: on one physical 1D ring, the native logical 1D
// all-reduce beats logical 3D topologies at large sizes (multi-hop
// traffic amplification).
func TestExtMappingShape(t *testing.T) {
	tables, err := ExtMapping(Quick())
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	last := rows[len(rows)-1]
	native := cell(t, last[1])
	for i := 2; i < len(last); i++ {
		if cell(t, last[i]) <= native {
			t.Errorf("extmap %s: mapped logical topology col %d (%v) beat native 1D (%v)",
				last[0], i, cell(t, last[i]), native)
		}
	}
}

// Ablation sanity: one monolithic chunk must be slower than the default
// 64-way split (no pipelining), and LSQ width 2 at least as good as 1.
func TestExtAblationShape(t *testing.T) {
	tables, err := ExtAblation(Quick())
	if err != nil {
		t.Fatal(err)
	}
	splits := tables[0].Rows
	if cell(t, splits[0][1]) <= cell(t, splits[3][1]) {
		t.Errorf("1 chunk (%v) should be slower than 64 chunks (%v)",
			cell(t, splits[0][1]), cell(t, splits[3][1]))
	}
	lsq := tables[1].Rows
	if cell(t, lsq[1][1]) > cell(t, lsq[0][1]) {
		t.Errorf("LSQ width 2 (%v) should not lose to width 1 (%v)",
			cell(t, lsq[1][1]), cell(t, lsq[0][1]))
	}
}

// TestSpecRejections: a study whose points cannot honour Options.Spec
// fails with the exclusion table's reason, not a panic or a guard deep
// in the engine. extintrapar partitions its own points, so a fault plan
// is rejected there; extgraph's pipelines send point to point, so
// intra-run parallelism is rejected there.
func TestSpecRejections(t *testing.T) {
	plan, err := faults.Parse(strings.NewReader(clitest.PlanJSON))
	if err != nil {
		t.Fatal(err)
	}
	faulted := Quick()
	faulted.Spec.Faults = plan
	partitioned := Quick()
	partitioned.Spec.System.IntraParallel = 2
	for _, tc := range []struct {
		name string
		run  func(Options) ([]*report.Table, error)
		o    Options
		want string
	}{
		{"extintrapar", ExtIntraPar, faulted, "-faults and -intra-parallel are mutually exclusive"},
		{"extgraph", ExtGraph, partitioned, "SEND/RECV needs point-to-point sends, which -intra-parallel does not support"},
	} {
		if _, err := tc.run(tc.o); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestFigureChecks: Figure.Check refuses a spec exactly where the
// figure's points would, so a sweep can reject it before running any.
func TestFigureChecks(t *testing.T) {
	plan, err := faults.Parse(strings.NewReader(clitest.PlanJSON))
	if err != nil {
		t.Fatal(err)
	}
	faulted := Quick().Spec
	faulted.Faults = plan
	partitioned := Quick().Spec
	partitioned.System.IntraParallel = 2
	for _, f := range append(Figures(), Extensions()...) {
		for _, tc := range []struct {
			spec   string
			s      cli.RunSpec
			refuse bool
		}{
			{"default", Quick().Spec, false},
			{"faults", faulted, f.ID == "extintrapar"},
			{"intra-parallel", partitioned, f.ID == "extgraph" || f.ID == "extparallel"},
		} {
			if err := f.Check(tc.s); (err != nil) != tc.refuse {
				t.Errorf("%s.Check(%s) = %v, want refused=%v", f.ID, tc.spec, err, tc.refuse)
			}
		}
	}
}
