package experiments

import (
	"slices"

	"astrasim/internal/cli"
	"astrasim/internal/report"
)

// Figure pairs an experiment with its runner.
type Figure struct {
	ID    string
	Title string
	Run   func(Options) ([]*report.Table, error)
}

// study is one registry entry: a figure and what its points need of a
// spec beyond the exclusion table, nil when they run it as given. needs
// may adjust the spec to the one its points run or reject it.
type study struct {
	Figure
	needs func(*cli.RunSpec) error
}

// paper holds the paper's figures in paper order.
var paper = []study{
	{Figure{"fig09", "1D topology: alltoall vs torus", Fig9}, nil},
	{Figure{"fig10", "2D/3D torus at 64 packages", Fig10}, nil},
	{Figure{"fig11", "Asymmetric hierarchical topology", Fig11}, nil},
	{Figure{"fig12", "Scaling the torus 8 to 64 modules", Fig12}, nil},
	{Figure{"fig13", "Transformer layer-wise communication", Fig13}, nil},
	{Figure{"fig14", "ResNet-50 layer-wise communication", Fig14}, nil},
	{Figure{"fig15", "ResNet-50 compute/comm/exposed", Fig15}, nil},
	{Figure{"fig16", "ResNet-50 breakdown, LIFO vs FIFO", Fig16}, nil},
	{Figure{"fig17", "Exposed communication vs system size", Fig17}, nil},
	{Figure{"fig18", "Exposed communication vs compute power", Fig18}, nil},
}

// extensions holds the future-work studies.
var extensions = []study{
	{Figure{"ext4d", "1D-5D torus dimensionality", Ext4D}, nil},
	{Figure{"extmap", "Logical-on-physical topology mapping", ExtMapping}, nil},
	{Figure{"extenergy", "Communication energy model", ExtEnergy}, nil},
	{Figure{"extablation", "System-layer scheduling ablations", ExtAblation}, nil},
	{Figure{"extscaleout", "Scale-out fabric extension", ExtScaleOut}, nil},
	{Figure{"extswitch", "Switch-based scale-up topology", ExtSwitched}, nil},
	{Figure{"extvalidate", "Simulator vs analytic bounds", ExtValidate}, nil},
	{Figure{"extdegrade", "Fault injection & graceful degradation", ExtDegradation}, nil},
	{Figure{"extgraph", "Graph workload engine: 1F1B pipeline bubbles", ExtGraph}, needsSends},
	{Figure{"extintrapar", "Intra-run parallel DES: determinism and event collapse", ExtIntraPar}, needsPartitions},
	{Figure{"exthier", "Compositional hierarchical topologies", ExtHier}, nil},
	{Figure{"extmem", "Disaggregated remote-memory tier", ExtMem}, nil},
	{Figure{"extparallel", "Modern parallelism: ZeRO stage x tp/pp layout grid", ExtParallel}, needsSends},
}

// Figures lists every reproducible figure in paper order.
func Figures() []Figure { return figures(paper) }

// Extensions lists the future-work studies.
func Extensions() []Figure { return figures(extensions) }

func figures(studies []study) []Figure {
	out := make([]Figure, len(studies))
	for i, s := range studies {
		out[i] = s.Figure
	}
	return out
}

// Check rejects a spec the figure's points cannot run, with the exclusion
// table's reason, so a sweep can refuse it before any point runs. A study
// whose points need more of the spec than the table says registers that
// requirement with its registry entry.
func (f Figure) Check(s cli.RunSpec) error {
	for _, st := range slices.Concat(paper, extensions) {
		if st.ID == f.ID && st.needs != nil {
			if err := st.needs(&s); err != nil {
				return err
			}
		}
	}
	return s.Validate(cli.FlagNames)
}
