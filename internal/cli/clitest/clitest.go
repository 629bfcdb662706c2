// Package clitest holds the checks shared by the tests of every surface
// that configures a run: the command-line tools' usage lines and flag
// surfaces, and the exclusion matrix that every surface must resolve
// exactly as cli.RunSpec.Validate does.
package clitest

import (
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"astrasim/internal/cli"
	"astrasim/internal/config"
	"astrasim/internal/faults"
	"astrasim/internal/graph"
)

// DocExamples runs every usage line of the package doc in the test's
// main.go ("//\t<command> <args>", minus a trailing "# comment" and the
// brackets of optional arguments) through parse. The examples' paths are
// relative to the repository root, so parse runs there.
func DocExamples(t *testing.T, command string, parse func(args []string) error) {
	t.Helper()
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(filepath.Join("..", "..")); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	n := 0
	for _, line := range strings.Split(string(src), "\n") {
		if args, ok := strings.CutPrefix(line, "//\t"+command+" "); ok {
			args, _, _ = strings.Cut(args, "#")
			if err := parse(strings.Fields(strings.NewReplacer("[", "", "]", "").Replace(args))); err != nil {
				t.Errorf("%s %s: %v", command, args, err)
			}
			n++
		}
	}
	if n == 0 {
		t.Fatalf("package doc of %s has no usage lines", command)
	}
}

// FlagSurface compares fs's flags, one "name<TAB>default" line each in
// name order, against the list recorded in testdata/flags.txt. -parallel's
// default is the machine's CPU count, recorded as "NumCPU".
func FlagSurface(t *testing.T, fs *flag.FlagSet) {
	t.Helper()
	var lines []string
	fs.VisitAll(func(f *flag.Flag) {
		def := f.DefValue
		if f.Name == "parallel" && def == strconv.Itoa(runtime.NumCPU()) {
			def = "NumCPU"
		}
		lines = append(lines, f.Name+"\t"+def)
	})
	sort.Strings(lines)
	want, err := os.ReadFile(filepath.Join("testdata", "flags.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(lines, "\n") + "\n"; got != string(want) {
		t.Errorf("flag surface changed:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// Cell is one cell of the exclusion matrix: backend × fault plan ×
// intra-run parallelism × a graph with SEND/RECV nodes.
type Cell struct {
	Backend       config.Backend
	Faults        bool
	IntraParallel int
	SendRecv      bool
}

// Cells returns all 16 cells of the matrix.
func Cells() []Cell {
	var cells []Cell
	for _, b := range []config.Backend{config.PacketBackend, config.FastBackend} {
		for _, f := range []bool{false, true} {
			for _, ip := range []int{0, 2} {
				cells = append(cells, Cell{b, f, ip, false}, Cell{b, f, ip, true})
			}
		}
	}
	return cells
}

// PlanJSON is the fault plan of the matrix's fault cells.
const PlanJSON = `{"seed": 1, "stragglers": [{"node": 0, "factor": 2}]}`

// GraphJSON returns the matrix's graph for 4 NPUs: one all-reduce, or
// one SEND/RECV pair when sendRecv is set.
func GraphJSON(sendRecv bool) string {
	if sendRecv {
		return `{"version": 1, "nodes": [{"id": "s", "kind": "SEND", "src": 0, "dst": 1, "bytes": 1024, "peer": "r"},
			{"id": "r", "kind": "RECV", "replica": 1, "peer": "s"}]}`
	}
	return `{"version": 1, "nodes": [{"id": "c", "kind": "COMM", "op": "ALLREDUCE", "bytes": 65536}]}`
}

// Args returns the flags that put a command in the cell, graph aside:
// -backend, -intra-parallel and, for fault cells, -faults plan.
func (c Cell) Args(plan string) []string {
	args := []string{"-backend", c.Backend.String(), "-intra-parallel", strconv.Itoa(c.IntraParallel)}
	if c.Faults {
		args = append(args, "-faults", plan)
	}
	return args
}

// Want is the table's verdict on the cell with settings spelled as n
// spells them: nil to accept, else the one rejection every surface must
// report.
func (c Cell) Want(t *testing.T, n cli.Names) error {
	t.Helper()
	g, err := graph.Parse("matrix", strings.NewReader(GraphJSON(c.SendRecv)))
	if err != nil {
		t.Fatal(err)
	}
	s := c.spec(t)
	if err := s.Validate(n); err != nil {
		return err
	}
	return s.ValidateGraph(g, n)
}

// WantSends is Want for a SEND/RECV cell whose workload, named what,
// sends point to point without a graph (cli.RunSpec.ValidateSends).
func (c Cell) WantSends(t *testing.T, n cli.Names, what string) error {
	t.Helper()
	s := c.spec(t)
	if err := s.Validate(n); err != nil {
		return err
	}
	return s.ValidateSends(what, n)
}

// spec returns the cell's run configuration on a 1x4x1 torus.
func (c Cell) spec(t *testing.T) cli.RunSpec {
	t.Helper()
	s := cli.NewRunSpec("1x4x1")
	s.System.Backend, s.System.IntraParallel = c.Backend, c.IntraParallel
	if c.Faults {
		var err error
		if s.Faults, err = faults.Parse(strings.NewReader(PlanJSON)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// Check fails the test unless a surface's outcome got matches the
// table's verdict want: both nil, or got naming want's reason.
func Check(t *testing.T, c Cell, got, want error) {
	t.Helper()
	if (got == nil) != (want == nil) || got != nil && !strings.Contains(got.Error(), want.Error()) {
		t.Errorf("%+v: got %v, want the table's verdict %v", c, got, want)
	}
}
