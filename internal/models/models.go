// Package models builds workload definitions (paper Fig. 8 files) for the
// DNNs the paper evaluates: ResNet-50 (data-parallel, Figs. 14-18),
// Transformer (hybrid-parallel, Fig. 13), and a DLRM-style recommendation
// model whose distributed embedding tables motivate the all-to-all
// collective (§III-B). Layer compute delays come from the analytical
// systolic-array model; communication sizes are computed from the layer
// dimensions exactly as the paper describes (§IV-C).
package models

import (
	"fmt"
	"strings"

	"astrasim/internal/collectives"
	"astrasim/internal/compute"
	"astrasim/internal/workload"
)

// GradBytes is the width of communicated gradients/activations (fp32
// accumulation, standard for the 2019-2020 training systems the paper
// targets).
const GradBytes = 4

// defaultUpdatePerKB is the local update cost: cycles per KB to apply the
// reduced gradients (Fig. 8's "Local Update Time").
const defaultUpdatePerKB = 1

// convSpec is one convolution layer of a CNN.
type convSpec struct {
	name     string
	inH      int // input spatial size (square)
	cin, k   int
	cout     int
	stride   int
	extraPar int // folded-in parameters (projection shortcuts)
}

// outH returns the output spatial size.
func (c convSpec) outH() int { return (c.inH + c.stride - 1) / c.stride }

// params returns the weight count.
func (c convSpec) params() int64 {
	return int64(c.k)*int64(c.k)*int64(c.cin)*int64(c.cout) + int64(c.extraPar)
}

// fwdGEMM returns the im2col GEMM of the forward pass for a batch.
func (c convSpec) fwdGEMM(batch int) compute.GEMM {
	o := c.outH()
	return compute.GEMM{M: batch * o * o, K: c.cin * c.k * c.k, N: c.cout}
}

// convLayer lowers a convSpec to a data-parallel workload layer: three
// training GEMMs for compute and a weight-gradient all-reduce sized by the
// parameter count. DRAM traffic per pass is the underlying tensor volume
// (input + weights + output), not the k^2-duplicated im2col matrix.
func convLayer(m compute.Model, c convSpec, batch int) workload.Layer {
	f, ig, wg := compute.TrainingGEMMs(c.fwdGEMM(batch))
	o := c.outH()
	elems := int64(batch)*int64(c.inH)*int64(c.inH)*int64(c.cin) + // activations
		c.params() + // weights
		int64(batch)*int64(o)*int64(o)*int64(c.cout) // outputs
	traffic := elems * int64(m.ElemBytes)
	overhead := uint64(float64(m.LayerOverhead) / m.Scale)
	return workload.Layer{
		Name:        c.name,
		FwdCompute:  m.GEMMCyclesWithTraffic(f, traffic) + overhead,
		IGCompute:   m.GEMMCyclesWithTraffic(ig, traffic) + overhead,
		WGCompute:   m.GEMMCyclesWithTraffic(wg, traffic) + overhead,
		FwdComm:     collectives.None,
		IGComm:      collectives.None,
		WGComm:      collectives.AllReduce,
		WGBytes:     c.params() * GradBytes,
		UpdatePerKB: defaultUpdatePerKB,
	}
}

// ResNet50 returns the data-parallel ResNet-50 workload (He et al. 2015)
// at the given local minibatch size (the paper uses 32). The 48 bottleneck
// convolutions, the stem convolution, and the classifier make 50 layers;
// the four projection-shortcut convolutions are folded into the parameter
// count of their stage's first block.
func ResNet50(m compute.Model, batch int) workload.Definition {
	specs := resnet50Specs()
	def := workload.Definition{Name: "ResNet-50", Parallelism: workload.DataParallel}
	for _, c := range specs {
		def.Layers = append(def.Layers, convLayer(m, c, batch))
	}
	// Classifier: global average pool + 2048x1000 fully connected.
	f, ig, wg := compute.TrainingGEMMs(compute.GEMM{M: batch, K: 2048, N: 1000})
	def.Layers = append(def.Layers, workload.Layer{
		Name:       "fc1000",
		FwdCompute: m.LayerCycles(f), IGCompute: m.LayerCycles(ig), WGCompute: m.LayerCycles(wg),
		WGComm:      collectives.AllReduce,
		WGBytes:     (2048*1000 + 1000) * GradBytes,
		UpdatePerKB: defaultUpdatePerKB,
	})
	return def
}

func stageName(stage, block int) string {
	return "conv" + string(rune('0'+stage)) + "_" + string(rune('a'+block))
}

// resnet50Specs returns the 49 convolution layers of ResNet-50 (stem plus
// 16 bottleneck blocks of three convolutions; v1.5 convention with the
// stride on the 3x3 convolution).
func resnet50Specs() []convSpec {
	specs := []convSpec{{name: "conv1", inH: 224, cin: 3, k: 7, cout: 64, stride: 2}}
	type stage struct {
		blocks, mid, out, inH int
		firstStride           int
	}
	stages := []stage{
		{blocks: 3, mid: 64, out: 256, inH: 56, firstStride: 1},
		{blocks: 4, mid: 128, out: 512, inH: 56, firstStride: 2},
		{blocks: 6, mid: 256, out: 1024, inH: 28, firstStride: 2},
		{blocks: 3, mid: 512, out: 2048, inH: 14, firstStride: 2},
	}
	cin := 64 // after conv1 + maxpool
	for si, st := range stages {
		h := st.inH
		for b := 0; b < st.blocks; b++ {
			stride := 1
			if b == 0 {
				stride = st.firstStride
			}
			extra := 0
			if b == 0 {
				extra = cin * st.out // 1x1 projection shortcut
			}
			base := stageName(si+2, b)
			specs = append(specs,
				convSpec{name: base + "a", inH: h, cin: cin, k: 1, cout: st.mid, stride: 1, extraPar: extra},
				convSpec{name: base + "b", inH: h, cin: st.mid, k: 3, cout: st.mid, stride: stride},
				convSpec{name: base + "c", inH: h / stride, cin: st.mid, k: 1, cout: st.out, stride: 1},
			)
			h /= stride
			cin = st.out
		}
	}
	return specs
}

// Transformer returns the hybrid-parallel Transformer encoder workload
// (Vaswani et al. 2017, base configuration: d_model 512, d_ff 2048, 8
// heads) for the given local minibatch and sequence length. The paper runs
// it hybrid-parallel on a 2x2x2 torus: data-parallel across the local and
// horizontal dimensions, model-parallel across the vertical dimension
// (Fig. 13) — so encoder layers communicate in all three passes: forward
// output activations (all-gather), input gradients (all-reduce) and weight
// gradients (all-reduce). The embedding and classifier communicate weight
// gradients only ("some layers may not have communications").
func Transformer(m compute.Model, batch, seqLen int) workload.Definition {
	return TransformerCustom(m, TransformerConfig{
		Name: "Transformer", DModel: 512, DFF: 2048, Heads: 8, Layers: 6,
		Vocab: 8192, Batch: batch, SeqLen: seqLen,
	})
}

// TransformerConfig parameterizes TransformerCustom.
type TransformerConfig struct {
	Name          string
	DModel, DFF   int
	Heads, Layers int
	Vocab         int
	Batch, SeqLen int
}

// BERTLarge returns the BERT-Large encoder (Devlin et al. 2018: 24 layers,
// d_model 1024, d_ff 4096, 16 heads, 30K WordPiece vocabulary) as a
// hybrid-parallel workload.
func BERTLarge(m compute.Model, batch, seqLen int) workload.Definition {
	return TransformerCustom(m, TransformerConfig{
		Name: "BERT-Large", DModel: 1024, DFF: 4096, Heads: 16, Layers: 24,
		Vocab: 30522, Batch: batch, SeqLen: seqLen,
	})
}

// TransformerCustom builds a hybrid-parallel encoder workload from an
// arbitrary configuration.
func TransformerCustom(m compute.Model, c TransformerConfig) workload.Definition {
	dModel := c.DModel
	dFF := c.DFF
	heads := c.Heads
	vocab := c.Vocab
	batch, seqLen := c.Batch, c.SeqLen
	tokens := batch * seqLen
	dHead := dModel / heads
	actBytes := int64(tokens) * int64(dModel) * GradBytes

	// The paper's hybrid setup (Fig. 13): data-parallel across the local
	// and horizontal dimensions, model-parallel across the vertical one.
	// Activation and input-gradient exchanges therefore stay within the
	// vertical dimension, weight gradients within local+horizontal.
	const (
		modelScope = workload.Scope("vertical")
		dataScope  = workload.Scope("local+horizontal")
	)

	def := workload.Definition{Name: c.Name, Parallelism: workload.HybridParallel}

	// Embedding: a lookup (negligible GEMM), large weight-gradient
	// all-reduce for the table.
	def.Layers = append(def.Layers, workload.Layer{
		Name:       "embedding",
		FwdCompute: m.LayerCycles(), IGCompute: m.LayerCycles(),
		WGCompute:   m.LayerCycles(compute.GEMM{M: vocab / 16, K: batch, N: dModel}),
		WGComm:      collectives.AllReduce,
		WGScope:     dataScope,
		WGBytes:     int64(vocab) * int64(dModel) * GradBytes,
		UpdatePerKB: defaultUpdatePerKB,
	})

	// Six identical encoder layers.
	encGEMMs := []compute.GEMM{
		{M: tokens, K: dModel, N: 3 * dModel},            // QKV projection
		{M: batch * heads * seqLen, K: dHead, N: seqLen}, // attention scores
		{M: batch * heads * seqLen, K: seqLen, N: dHead}, // attention context
		{M: tokens, K: dModel, N: dModel},                // output projection
		{M: tokens, K: dModel, N: dFF},                   // FFN up
		{M: tokens, K: dFF, N: dModel},                   // FFN down
	}
	params := int64(dModel)*int64(3*dModel) + int64(dModel)*int64(dModel) +
		2*int64(dModel)*int64(dFF)
	var fwd, igc, wgc uint64
	for _, g := range encGEMMs {
		f, ig, wg := compute.TrainingGEMMs(g)
		fwd += m.GEMMCycles(f)
		igc += m.GEMMCycles(ig)
		wgc += m.GEMMCycles(wg)
	}
	fwd += m.LayerCycles()
	igc += m.LayerCycles()
	wgc += m.LayerCycles()
	for i := 1; i <= c.Layers; i++ {
		def.Layers = append(def.Layers, workload.Layer{
			Name:       fmt.Sprintf("encoder%d", i),
			FwdCompute: fwd, IGCompute: igc, WGCompute: wgc,
			FwdComm: collectives.AllGather, FwdScope: modelScope, FwdBytes: actBytes,
			IGComm: collectives.AllReduce, IGScope: modelScope, IGBytes: actBytes,
			WGComm: collectives.AllReduce, WGScope: dataScope, WGBytes: params * GradBytes,
			UpdatePerKB: defaultUpdatePerKB,
		})
	}

	// Classifier over the vocabulary.
	f, ig, wg := compute.TrainingGEMMs(compute.GEMM{M: tokens, K: dModel, N: vocab})
	def.Layers = append(def.Layers, workload.Layer{
		Name:       "classifier",
		FwdCompute: m.LayerCycles(f), IGCompute: m.LayerCycles(ig), WGCompute: m.LayerCycles(wg),
		WGComm:      collectives.AllReduce,
		WGScope:     dataScope,
		WGBytes:     int64(dModel) * int64(vocab) * GradBytes,
		UpdatePerKB: defaultUpdatePerKB,
	})
	return def
}

// DLRM returns a recommendation-model workload in the style of Naumov et
// al. 2019: a bottom MLP over dense features, distributed embedding tables
// whose lookups require an all-to-all in the forward pass and another for
// the gradients (§III-B: "the usage of all-to-all is specific to certain
// DNNs that have distributed key/value tables"), a feature-interaction
// layer, and a top MLP. MLP weights are data-parallel (all-reduce).
func DLRM(m compute.Model, batch int) workload.Definition {
	const (
		denseIn = 13
		embDim  = 64
		tables  = 26
	)
	def := workload.Definition{Name: "DLRM", Parallelism: workload.HybridParallel}

	mlp := func(name string, in, out int, comm bool) workload.Layer {
		f, ig, wg := compute.TrainingGEMMs(compute.GEMM{M: batch, K: in, N: out})
		l := workload.Layer{
			Name:       name,
			FwdCompute: m.LayerCycles(f), IGCompute: m.LayerCycles(ig), WGCompute: m.LayerCycles(wg),
			UpdatePerKB: defaultUpdatePerKB,
		}
		if comm {
			l.WGComm = collectives.AllReduce
			l.WGBytes = int64(in) * int64(out) * GradBytes
		}
		return l
	}
	def.Layers = append(def.Layers,
		mlp("bot_mlp1", denseIn, 512, true),
		mlp("bot_mlp2", 512, 256, true),
		mlp("bot_mlp3", 256, embDim, true),
	)

	// Embedding exchange: every sample needs all tables' vectors, but
	// tables are sharded across NPUs -> all-to-all of the looked-up
	// vectors forward, and of their gradients backward.
	lookupBytes := int64(batch) * tables * embDim * GradBytes
	def.Layers = append(def.Layers, workload.Layer{
		Name:       "embeddings",
		FwdCompute: m.LayerCycles(), IGCompute: m.LayerCycles(), WGCompute: m.LayerCycles(),
		FwdComm: collectives.AllToAll, FwdBytes: lookupBytes,
		IGComm: collectives.AllToAll, IGBytes: lookupBytes,
		UpdatePerKB: defaultUpdatePerKB,
	})

	interIn := embDim + tables*(tables+1)/2
	def.Layers = append(def.Layers,
		mlp("interaction", embDim*tables, interIn, false),
		mlp("top_mlp1", interIn, 512, true),
		mlp("top_mlp2", 512, 256, true),
		mlp("top_mlp3", 256, 1, true),
	)
	return def
}

// ResNet50ForwardMACs reports the forward-pass MAC count per sample of
// the ResNet-50 layer table (excluding the projection shortcuts, which
// are folded into parameter counts only) — a calibration aid pinning the
// table against the published ~4.1 GMac figure.
func ResNet50ForwardMACs(batch int) int64 {
	specs := resnet50Specs()
	var macs int64
	for _, c := range specs {
		g := c.fwdGEMM(batch)
		macs += int64(g.M) * int64(g.K) * int64(g.N)
	}
	macs += int64(batch) * 2048 * 1000
	return macs / int64(batch)
}

// VGG16 returns the data-parallel VGG-16 workload (Simonyan & Zisserman
// 2014): 13 convolutions and 3 fully-connected layers with ~138M
// parameters — the classic gradient-heavy CNN whose all-reduce volume
// dwarfs ResNet-50's.
func VGG16(m compute.Model, batch int) workload.Definition {
	def := workload.Definition{Name: "VGG-16", Parallelism: workload.DataParallel}
	type block struct{ convs, cout, inH int }
	blocks := []block{
		{2, 64, 224}, {2, 128, 112}, {3, 256, 56}, {3, 512, 28}, {3, 512, 14},
	}
	cin := 3
	n := 0
	for _, b := range blocks {
		for c := 0; c < b.convs; c++ {
			n++
			def.Layers = append(def.Layers, convLayer(m, convSpec{
				name: fmt.Sprintf("conv%d", n), inH: b.inH,
				cin: cin, k: 3, cout: b.cout, stride: 1,
			}, batch))
			cin = b.cout
		}
	}
	fc := func(name string, in, out int) workload.Layer {
		f, ig, wg := compute.TrainingGEMMs(compute.GEMM{M: batch, K: in, N: out})
		return workload.Layer{
			Name:       name,
			FwdCompute: m.LayerCycles(f), IGCompute: m.LayerCycles(ig), WGCompute: m.LayerCycles(wg),
			WGComm:      collectives.AllReduce,
			WGBytes:     (int64(in)*int64(out) + int64(out)) * GradBytes,
			UpdatePerKB: defaultUpdatePerKB,
		}
	}
	def.Layers = append(def.Layers,
		fc("fc6", 512*7*7, 4096),
		fc("fc7", 4096, 4096),
		fc("fc8", 4096, 1000),
	)
	return def
}

// ResNet50ActivationBytes returns each ResNet-50 layer's output activation
// size in bytes (batch x outH^2 x channels x GradBytes; the classifier
// emits batch x 1000 logits) — the stage-boundary tensor sizes for
// pipeline-parallel partitioning.
func ResNet50ActivationBytes(batch int) []int64 {
	specs := resnet50Specs()
	out := make([]int64, 0, len(specs)+1)
	for _, c := range specs {
		o := int64(c.outH())
		out = append(out, int64(batch)*o*o*int64(c.cout)*GradBytes)
	}
	out = append(out, int64(batch)*1000*GradBytes)
	return out
}

// Builtin is one entry of the built-in workload table: the names the
// astrasim CLI's -workload flag and the daemon's workload.model resolve.
type Builtin struct {
	// Name is the canonical spelling.
	Name string
	// Seq reports whether the model reads the sequence length.
	Seq bool
	// Build returns the workload at a local batch and sequence length.
	Build func(m compute.Model, batch, seqLen int) workload.Definition
}

var builtins = []Builtin{
	{"resnet50", false, func(m compute.Model, batch, _ int) workload.Definition { return ResNet50(m, batch) }},
	{"vgg16", false, func(m compute.Model, batch, _ int) workload.Definition { return VGG16(m, batch) }},
	{"bertlarge", true, BERTLarge},
	{"transformer", true, Transformer},
	{"dlrm", false, func(m compute.Model, batch, _ int) workload.Definition { return DLRM(m, batch) }},
}

// builtinAliases maps accepted alternative spellings to canonical names.
var builtinAliases = map[string]string{"resnet-50": "resnet50"}

// LookupBuiltin resolves name, case-insensitively and through its
// aliases, to its entry in the built-in workload table.
func LookupBuiltin(name string) (Builtin, bool) {
	name = strings.ToLower(name)
	if canon, ok := builtinAliases[name]; ok {
		name = canon
	}
	for _, b := range builtins {
		if b.Name == name {
			return b, true
		}
	}
	return Builtin{}, false
}

// BuiltinNames lists the canonical names, "|"-separated.
func BuiltinNames() string {
	names := make([]string, len(builtins))
	for i, b := range builtins {
		names[i] = b.Name
	}
	return strings.Join(names, "|")
}
