// Regression tests for scripts/bench.sh: the missing-benchmark guard
// (a renamed/removed LARGE benchmark must be a named failure, not a
// silently empty JSON), the per-sample median aggregation, and the
// compare path's baseline join and event-count check.
package astrasim_test

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchSh runs scripts/bench.sh with args and returns combined output.
func benchSh(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command("sh", append([]string{"scripts/bench.sh"}, args...)...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func TestBenchCheckNamesMissingBenchmark(t *testing.T) {
	txt := filepath.Join(t.TempDir(), "bench.txt")
	lines := "BenchmarkAllReduce16x32x32_PacketSerial-1 \t 1\t 90 ns/op\t 8 B/op\t 2 allocs/op\n"
	if err := os.WriteFile(txt, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}

	// All names present: exit 0.
	if out, err := benchSh(t, "check", txt, "BenchmarkAllReduce16x32x32_PacketSerial"); err != nil {
		t.Fatalf("check rejected a complete result set: %v\n%s", err, out)
	}

	// A renamed/removed benchmark: non-zero exit naming the benchmark.
	out, err := benchSh(t, "check", txt,
		"BenchmarkAllReduce16x32x32_PacketSerial|BenchmarkAllReduce16x32x32_IntraParallel")
	if err == nil {
		t.Fatalf("check accepted a result set missing a benchmark:\n%s", out)
	}
	if !strings.Contains(out, "BenchmarkAllReduce16x32x32_IntraParallel") {
		t.Fatalf("failure does not name the missing benchmark:\n%s", out)
	}
	if strings.Contains(out, "BenchmarkAllReduce16x32x32_PacketSerial ") {
		t.Fatalf("failure names a benchmark that was present:\n%s", out)
	}
}

// TestBenchCheckGuardsLargeSet: every benchmark named in the script's
// LARGE set must exist in this package, or `bench.sh large` would die on
// the guard after minutes of benchmarking. Parses the LARGE= line and
// cross-checks against `go test -list`.
func TestBenchCheckGuardsLargeSet(t *testing.T) {
	script, err := os.ReadFile("scripts/bench.sh")
	if err != nil {
		t.Fatal(err)
	}
	var largeSet string
	for _, line := range strings.Split(string(script), "\n") {
		if strings.HasPrefix(line, "LARGE='") {
			largeSet = strings.TrimSuffix(strings.TrimPrefix(line, "LARGE='"), "'")
		}
	}
	if largeSet == "" {
		t.Fatal("scripts/bench.sh has no LARGE= set")
	}
	out, err := exec.Command("go", "test", "-run", "^$", "-list", largeSet, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go test -list: %v\n%s", err, out)
	}
	for _, name := range strings.Split(largeSet, "|") {
		if !strings.Contains(string(out), name) {
			t.Errorf("LARGE names %s, which no longer exists in bench_test.go", name)
		}
	}
}

// TestBenchComparePath drives compare mode against a crafted fresh run:
// an inflated ns/op must produce a ::warning annotation, and a benchmark
// absent from the committed baseline must be called out (not silently
// skipped) — while the run itself still exits zero, since CI regressions
// warn rather than fail.
func TestBenchComparePath(t *testing.T) {
	baseline, err := os.ReadFile("BENCH_core.json")
	if err != nil {
		t.Skip("no committed BENCH_core.json baseline")
	}
	// Pick the first benchmark name out of the committed baseline.
	fields := strings.SplitN(string(baseline), `"benchmark":"`, 2)
	if len(fields) != 2 {
		t.Fatalf("cannot parse baseline:\n%s", baseline)
	}
	name := fields[1][:strings.Index(fields[1], `"`)]

	work := t.TempDir()
	fresh := `[
  {"benchmark":"` + name + `","iterations":1,"ns_per_op":999999999999,"bytes_per_op":1,"allocs_per_op":1},
  {"benchmark":"BenchmarkNotInBaseline","iterations":1,"ns_per_op":5,"bytes_per_op":1,"allocs_per_op":1}
]`
	if err := os.WriteFile(filepath.Join(work, "BENCH_core.json"), []byte(fresh), 0o644); err != nil {
		t.Fatal(err)
	}

	out, err := benchSh(t, "compare", work)
	if err != nil {
		t.Fatalf("compare exited non-zero: %v\n%s", err, out)
	}
	if !strings.Contains(out, "::warning") || !strings.Contains(out, name) {
		t.Fatalf("no regression warning for %s:\n%s", name, out)
	}
	if !strings.Contains(out, "BenchmarkNotInBaseline") {
		t.Fatalf("benchmark missing from baseline was silently skipped:\n%s", out)
	}
}

// TestBenchCompareEvents: compare mode fails, naming the benchmark, when a
// fresh run's events_per_op differs from the baseline's, and passes when
// the counts match even though the timings differ. The script runs from a
// copy in a temporary repository root, so the baseline is a hand-written
// BENCH_core.json rather than the committed one.
func TestBenchCompareEvents(t *testing.T) {
	script, err := os.ReadFile("scripts/bench.sh")
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	write := func(path, body string) {
		t.Helper()
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(filepath.Join(root, "scripts", "bench.sh"), string(script))
	record := func(name string, ns, events int) string {
		return fmt.Sprintf(`  {"benchmark":"%s","iterations":1,"ns_per_op":%d,"bytes_per_op":8,"allocs_per_op":1,"events_per_op":%d}`,
			name, ns, events)
	}
	write(filepath.Join(root, "BENCH_core.json"), "[\n"+
		record("BenchmarkSimA", 1000, 147456)+",\n"+record("BenchmarkSimB", 1000, 2752512)+"\n]\n")

	compare := func(fresh string) (string, error) {
		t.Helper()
		work := t.TempDir()
		write(filepath.Join(work, "BENCH_core.json"), fresh)
		out, err := exec.Command("sh", filepath.Join(root, "scripts", "bench.sh"), "compare", work).CombinedOutput()
		return string(out), err
	}

	out, err := compare("[\n" + record("BenchmarkSimA", 1100, 147456) + ",\n" + record("BenchmarkSimB", 900, 2752512) + "\n]\n")
	if err != nil {
		t.Fatalf("compare failed on equal event counts: %v\n%s", err, out)
	}
	if strings.Contains(out, "::error") {
		t.Fatalf("equal event counts raised an error:\n%s", out)
	}

	out, err = compare("[\n" + record("BenchmarkSimA", 1000, 147456) + ",\n" + record("BenchmarkSimB", 1000, 2752513) + "\n]\n")
	if err == nil {
		t.Fatalf("compare exited 0 on a changed event count:\n%s", out)
	}
	if !strings.Contains(out, "::error") || !strings.Contains(out, "BenchmarkSimB") {
		t.Fatalf("event-count failure does not name BenchmarkSimB:\n%s", out)
	}
	if strings.Contains(out, "BenchmarkSimA events") {
		t.Fatalf("failure names BenchmarkSimA, whose count did not change:\n%s", out)
	}
}

// TestBenchJSONMedian: repeated samples of one benchmark (-count) collapse
// into one JSON record carrying the median of each value and the ns/op
// extremes, in first-seen benchmark order.
func TestBenchJSONMedian(t *testing.T) {
	dir := t.TempDir()
	txt := filepath.Join(dir, "bench.txt")
	lines := "BenchmarkA-2 \t 3\t 500 ns/op\t 10 B/op\t 1 allocs/op\n" +
		"BenchmarkB-2 \t 9\t 7 ns/op\t 0 B/op\t 0 allocs/op\n" +
		"BenchmarkA-2 \t 3\t 100 ns/op\t 30 B/op\t 3 allocs/op\n" +
		"BenchmarkA-2 \t 3\t 300 ns/op\t 20 B/op\t 2 allocs/op\n"
	if err := os.WriteFile(txt, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	json := filepath.Join(dir, "bench.json")
	if out, err := benchSh(t, "tojson", txt, json); err != nil {
		t.Fatalf("tojson: %v\n%s", err, out)
	}
	got, err := os.ReadFile(json)
	if err != nil {
		t.Fatal(err)
	}
	want := `[
  {"benchmark":"BenchmarkA","iterations":3,"samples":3,"ns_per_op":300,"ns_per_op_min":100,"ns_per_op_max":500,"bytes_per_op":20,"allocs_per_op":2},
  {"benchmark":"BenchmarkB","iterations":9,"samples":1,"ns_per_op":7,"ns_per_op_min":7,"ns_per_op_max":7,"bytes_per_op":0,"allocs_per_op":0}
]
`
	if string(got) != want {
		t.Fatalf("tojson wrote\n%s\nwant\n%s", got, want)
	}
}

// TestBenchJSONEvents: a simulation benchmark's events/op, which go test
// prints between ns/op and B/op, becomes events_per_op (the median over
// samples) without shifting the other values; a benchmark without it
// gets no such key.
func TestBenchJSONEvents(t *testing.T) {
	dir := t.TempDir()
	txt := filepath.Join(dir, "bench.txt")
	lines := "BenchmarkSim-2 \t 1\t 900 ns/op\t 147456 events/op\t 40 B/op\t 4 allocs/op\n" +
		"BenchmarkSim-2 \t 1\t 700 ns/op\t 147456 events/op\t 60 B/op\t 6 allocs/op\n" +
		"BenchmarkSim-2 \t 1\t 800 ns/op\t 147456 events/op\t 50 B/op\t 5 allocs/op\n" +
		"BenchmarkQueue-2 \t 9\t 7 ns/op\t 0 B/op\t 0 allocs/op\n"
	if err := os.WriteFile(txt, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	json := filepath.Join(dir, "bench.json")
	if out, err := benchSh(t, "tojson", txt, json); err != nil {
		t.Fatalf("tojson: %v\n%s", err, out)
	}
	got, err := os.ReadFile(json)
	if err != nil {
		t.Fatal(err)
	}
	want := `[
  {"benchmark":"BenchmarkSim","iterations":1,"samples":3,"ns_per_op":800,"ns_per_op_min":700,"ns_per_op_max":900,"bytes_per_op":50,"allocs_per_op":5,"events_per_op":147456},
  {"benchmark":"BenchmarkQueue","iterations":9,"samples":1,"ns_per_op":7,"ns_per_op_min":7,"ns_per_op_max":7,"bytes_per_op":0,"allocs_per_op":0}
]
`
	if string(got) != want {
		t.Fatalf("tojson wrote\n%s\nwant\n%s", got, want)
	}
}
