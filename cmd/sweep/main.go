// Command sweep regenerates every figure of the paper's evaluation
// section (Figs. 9-18) and writes the rows/series as CSV files plus an
// aligned-text summary.
//
// Usage:
//
//	sweep -fig fig09 -quick -parallel 4 -out results
//	sweep -fig all -ext -audit
//	sweep -fig fig10 -quick -backend fast
//	sweep -fig fig09 -quick -faults examples/faults/lossy.json
//	sweep -fig fig11 -quick -intra-parallel 2
//
// -fig selects all, or the figures and extension studies whose registry
// ID starts with its value (fig09..fig18, ext4d, extmap, extenergy, ...;
// -help and the unknown-figure error list every ID); -ext adds the
// extension studies to -fig all.
//
// The four engine flags below bind one cli.RunSpec. Every point of every
// figure copies that spec and sets its own topology spec, ring counts,
// algorithm, network and knobs, so the copy describes the point
// completely; the point validates and builds through it alone, passing
// the same Validate table as the other tools. Before the first point
// runs, every selected figure checks the spec as its points will run it;
// a figure that cannot run it ends the sweep with exit 1, the figure's ID
// and the table's reason, and no CSV written.
//
// -backend selects the network transport for every simulation: packet
// (congestion-aware, the default — what the committed golden CSVs were
// recorded with) or fast (congestion-unaware analytical mode for quick
// design sweeps; see DESIGN.md §11). -faults requires the packet
// backend; the degradation study always runs on the serial packet
// engine.
//
// -audit attaches the invariant auditor (byte conservation, quiescence,
// monotonic link stats) to every simulation instance the sweep creates and
// exits non-zero if any run violates an invariant.
//
// -faults applies a JSON fault plan (degraded links, outages, stragglers,
// packet drops with retransmit; see DESIGN.md §8) to every simulation the
// sweep creates — "rerun the paper's figures on a lossy fabric" is one
// flag. Fault decisions derive from the plan's seed, so results stay
// byte-identical for every -parallel value. The degradation study applies
// its own plans after this one. extintrapar partitions its own points, so
// a sweep that selects it rejects -faults with the table's "-faults and
// -intra-parallel are mutually exclusive".
//
// Full mode sweeps the paper's message-size ranges and runs two training
// iterations of ResNet-50 and Transformer; -quick shrinks everything for a
// fast smoke run.
//
// -intra-parallel N additionally partitions each packet-mode simulation
// point across N shard-pool workers (intra-run parallelism, DESIGN.md
// §13) — use it when a few huge points dominate a sweep. CSVs stay
// byte-identical at any value. Incompatible with -faults. Point-to-point
// sends need the serial engine, so a sweep that selects a study replaying
// SEND/RECV pipelines (extgraph, extparallel) rejects it.
//
// Each figure's independent simulation points fan out across -parallel
// worker goroutines (default: all CPUs). Every point still runs on its own
// single-threaded deterministic engine and results are collected in
// submission order, so the CSV output is byte-identical for every
// -parallel value; see DESIGN.md "Parallel execution model".
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"astrasim/internal/audit"
	"astrasim/internal/cli"
	"astrasim/internal/experiments"
)

// options is the parsed and validated command line.
type options struct {
	// spec carries -backend, -intra-parallel, -faults and -audit.
	spec  cli.RunSpec
	fig   string
	out   string
	quick bool
	ext   bool
	// workers fans each figure's independent points across goroutines.
	workers int
}

// newFlags returns the command's flag set bound to options holding the
// defaults.
func newFlags() (*flag.FlagSet, *options) {
	o := &options{spec: cli.NewRunSpec("")}
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	o.spec.BindEngine(fs)
	fs.StringVar(&o.fig, "fig", "all", "figures to regenerate: all, or an ID or ID prefix of "+studyIDs())
	fs.StringVar(&o.out, "out", "results", "output directory for CSV files")
	fs.BoolVar(&o.quick, "quick", false, "reduced sizes/iterations for a fast smoke run")
	fs.BoolVar(&o.ext, "ext", false, "also run the future-work extension studies with -fig all")
	fs.IntVar(&o.workers, "parallel", runtime.NumCPU(), "worker goroutines for independent simulation points (1 = serial)")
	return fs, o
}

// parseArgs parses the flag set and rejects unsupported combinations,
// naming them in the error.
func parseArgs(args []string) (*options, error) {
	fs, o := newFlags()
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if err := o.spec.Validate(cli.FlagNames); err != nil {
		return nil, err
	}
	return o, nil
}

func main() {
	o, err := parseArgs(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fatal(err)
	}

	opts := experiments.Full()
	if o.quick {
		opts = experiments.Quick()
	}
	opts.Workers = o.workers
	opts.Spec = o.spec
	if o.spec.Audit {
		opts.Audits = &audit.Collector{}
	}

	figures, err := selectFigures(o.fig, o.ext)
	if err != nil {
		fatal(err)
	}
	// Refuse the whole sweep before the first point runs if any selected
	// figure cannot run the spec.
	for _, f := range figures {
		if err := f.Check(o.spec); err != nil {
			fatal(fmt.Errorf("%s: %w", f.ID, err))
		}
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fatal(err)
	}

	for _, f := range figures {
		start := time.Now()
		fmt.Printf("=== %s: %s\n", f.ID, f.Title)
		tables, err := f.Run(opts)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", f.ID, err))
		}
		for _, t := range tables {
			if err := t.WriteASCII(os.Stdout); err != nil {
				fatal(err)
			}
			fmt.Println()
			path := filepath.Join(o.out, t.ID+".csv")
			fh, err := os.Create(path)
			if err != nil {
				fatal(err)
			}
			if err := t.WriteCSV(fh); err != nil {
				fatal(err)
			}
			if err := fh.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", path)
		}
		fmt.Printf("(%s in %.1fs)\n\n", f.ID, time.Since(start).Seconds())
	}
	if c := opts.Audits; c != nil {
		fmt.Println(c.Summary())
		if v := c.Violations(); len(v) > 0 {
			for _, s := range v {
				fmt.Fprintln(os.Stderr, "sweep: audit:", s)
			}
			fatal(fmt.Errorf("%d invariant violations", len(v)))
		}
	}
}

// studyIDs lists the registry's figure and study IDs, comma-separated.
func studyIDs() string {
	var ids []string
	for _, f := range append(experiments.Figures(), experiments.Extensions()...) {
		ids = append(ids, f.ID)
	}
	return strings.Join(ids, ", ")
}

// selectFigures returns the figures -fig names: every figure for "all"
// (and every extension study with -ext), else those whose ID starts with
// fig.
func selectFigures(fig string, ext bool) ([]experiments.Figure, error) {
	all := experiments.Figures()
	if ext || fig != "all" {
		all = append(all, experiments.Extensions()...)
	}
	var figures []experiments.Figure
	for _, f := range all {
		if fig == "all" || strings.HasPrefix(f.ID, fig) {
			figures = append(figures, f)
		}
	}
	if len(figures) == 0 {
		return nil, fmt.Errorf("unknown figure %q; use all, or an ID or ID prefix of %s", fig, studyIDs())
	}
	return figures, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
