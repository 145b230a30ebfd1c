package lstm

import (
	"fmt"

	"mobilstm/internal/intercell"
	"mobilstm/internal/intracell"
	"mobilstm/internal/tensor"
)

// RunOptions selects the execution mode and its thresholds.
type RunOptions struct {
	// Inter enables the inter-cell optimization: layer division at links
	// with relevance below AlphaInter, predicted-link recovery, and
	// tissue re-organization bounded by MTS.
	Inter      bool
	AlphaInter float64
	// MTS is the platform's maximum tissue size (from intercell.FindMTS);
	// required when Inter is set.
	MTS int
	// Predictors supplies the Eq. 6 predicted context link per layer;
	// required when Inter is set (zero predictors are a valid cold
	// start, but accuracy suffers — exactly the trade the paper makes).
	Predictors []intercell.Predictor

	// Intra enables Dynamic Row Skip with the near-zero threshold
	// AlphaIntra on the output gate.
	Intra      bool
	AlphaIntra float64

	// Chain selects the accumulation chain the GEMV/GEMM kernels run
	// (tensor.KernelChain). The zero value (ChainAuto) follows the
	// process default — the canonical bitwise-deterministic chain
	// unless tensor.SetKernelChain or MOBILSTM_KERNEL_CHAIN moved it.
	// ChainAVX2 opts this run into the wide FMA fast mode: logits keep
	// the same determinism guarantees within the wide chain
	// (Run≡RunBatch, any GOMAXPROCS) but drift a few ULP from the
	// canonical chain's bits (see EXPERIMENTS.md). A run resolves the
	// chain once and passes it down to every kernel, so the two chains
	// never mix within one forward pass; calibration and predictor
	// collection always run the canonical chain (offline artifacts are
	// shared across chains). A value outside {ChainAuto, ChainSSE2,
	// ChainAVX2} fails the run (an error from RunE/RunBatchE).
	Chain tensor.KernelChain

	// Trace, when non-nil, collects the structural decisions of the run
	// (relevance values, breakpoints, tissue layout, skip counts) — the
	// information the paper's PyTorch stage exports to DeepBench, and
	// that our scheduler replays on the GPU model.
	Trace *Trace
}

// Baseline returns options for the exact Algorithm 1 flow.
func Baseline() RunOptions { return RunOptions{} }

// Trace records the structural decisions of one optimized run.
type Trace struct {
	Layers []LayerTrace
}

// LayerTrace is the per-layer record.
type LayerTrace struct {
	Layer int
	Cells int
	// Relevance[t-1] is the Algorithm 2 value S of the link into cell t.
	Relevance []float64
	// Breakpoints are the cell indices whose incoming link was cut.
	Breakpoints []int
	// SublayerSizes and TissueSizes describe the division and the
	// aligned re-organization.
	SublayerSizes []int
	TissueSizes   []int
	// SkipCounts[k] is the number of trivial hidden elements shared by
	// tissue k (combined mode) or of cell k (intra-only mode).
	SkipCounts []int
}

// Sublayers returns the number of sub-layers the layer divided into.
func (lt *LayerTrace) Sublayers() int { return len(lt.SublayerSizes) }

// MeanSkipFraction returns the average skipped fraction of hidden
// elements across the layer's execution units.
func (lt *LayerTrace) MeanSkipFraction(hidden int) float64 {
	if len(lt.SkipCounts) == 0 || hidden == 0 {
		return 0
	}
	var s int
	for _, c := range lt.SkipCounts {
		s += c
	}
	return float64(s) / float64(len(lt.SkipCounts)*hidden)
}

// Run executes the network on one input sequence and returns the class
// logits. The sequence is the layer input x_1..x_n (each of length
// Input()); every layer consumes the previous layer's hidden outputs.
//
// The layer loop owns one scratch arena for the whole call: every
// per-cell buffer (gate pre-activations, output gates, hidden outputs,
// sub-layer states) lives in it, so the hot path performs no per-cell
// allocation and a Run's footprint is a handful of arena slabs.
func (n *Network) Run(xs []tensor.Vector, opt RunOptions) tensor.Vector {
	if len(xs) == 0 {
		tensor.Panicf("lstm: empty input sequence")
	}
	if opt.Inter {
		if opt.MTS < 1 {
			tensor.Panicf("lstm: Inter mode requires MTS >= 1")
		}
		if len(opt.Predictors) != len(n.Layers) {
			tensor.Panicf("lstm: %d predictors for %d layers", len(opt.Predictors), len(n.Layers))
		}
	}
	kc := tensor.ResolveChain(opt.Chain)
	sc := newLayerScratch(n.Hidden(), len(xs))
	seq := xs
	for li, l := range n.Layers {
		var lt *LayerTrace
		if opt.Trace != nil {
			opt.Trace.Layers = append(opt.Trace.Layers, LayerTrace{Layer: li, Cells: len(seq)})
			lt = &opt.Trace.Layers[len(opt.Trace.Layers)-1]
		}
		seq = n.runLayer(li, l, seq, opt, lt, sc, kc)
	}
	return n.headLogits(seq[len(seq)-1], kc)
}

// headLogits applies the linear head to a final hidden state, returning
// freshly allocated logits (never an arena view).
func (n *Network) headLogits(last tensor.Vector, kc tensor.KernelChain) tensor.Vector {
	logits := tensor.NewVector(n.Head.Rows)
	kc.Gemv(logits, n.Head, last)
	tensor.Add(logits, logits, n.HeadBias)
	return logits
}

// CheckSequence validates a caller-supplied input sequence against the
// network's input width without running it: a serving front-end uses it
// to reject one malformed batch member with its own error instead of
// failing the co-batched requests.
func (n *Network) CheckSequence(xs []tensor.Vector) error {
	if len(xs) == 0 {
		return fmt.Errorf("lstm: empty input sequence")
	}
	in := n.Input()
	for t, x := range xs {
		if len(x) != in {
			return fmt.Errorf("lstm: sequence element %d has length %d, want input width %d", t, len(x), in)
		}
	}
	return nil
}

// Classify runs the network and returns the argmax class.
func (n *Network) Classify(xs []tensor.Vector, opt RunOptions) int {
	return tensor.ArgMax(n.Run(xs, opt))
}

// RunE is the serving-path entry point of Run: the same validation
// (empty sequence, missing MTS, predictor/layer mismatch, shape
// violations in the cell math) reports as an error instead of a
// process-killing panic, so a server worker survives a malformed
// request. The happy path is identical to Run.
func (n *Network) RunE(xs []tensor.Vector, opt RunOptions) (logits tensor.Vector, err error) {
	defer tensor.Guard(&err)
	return n.Run(xs, opt), nil
}

// ClassifyE runs the network and returns the argmax class, reporting
// validation failures as errors (the serving-path Classify).
func (n *Network) ClassifyE(xs []tensor.Vector, opt RunOptions) (class int, err error) {
	defer tensor.Guard(&err)
	return tensor.ArgMax(n.Run(xs, opt)), nil
}

// layerScratch is the arena behind one forward pass: every buffer the
// layer loop touches per cell is carved out of a few slabs sized once
// (and re-sized only if a later call sees a bigger shape). Hidden
// outputs use two ping-pong slabs because layer k+1 reads layer k's
// outputs while producing its own.
type layerScratch struct {
	hid      int // hidden size the buffers are carved for
	cells    int // cells of the current layer
	capCells int // slab capacity in cells

	wxFull *tensor.Matrix // capCells × 4h united W·x slab
	wx     *tensor.Matrix // first `cells` rows of wxFull; row t = [xf|xi|xc|xo]

	uo         tensor.Vector   // U_o · h_{t-1}
	uf, ui, uc tensor.Vector   // U_{f,i,c} · h_{t-1}, views into one slab
	fic        []tensor.Vector // {uf, ui, uc}: the PackedGemvRows destinations

	os    []tensor.Vector // per-tissue output gates, views into osBuf
	osBuf []float32
	skip  []bool // DRS mask reused across tissues

	hsA, hsB       []tensor.Vector // ping-pong per-cell hidden outputs
	hsABuf, hsBBuf []float32
	ping           bool

	states []cellState // per-sub-layer (h, c), views into stBuf
	stBuf  []float32
	subOf  []int
}

func newLayerScratch(h, cells int) *layerScratch {
	sc := &layerScratch{}
	sc.reset(h, cells)
	return sc
}

// reset prepares the arena for a layer of the given shape, reallocating
// the slabs only when the shape outgrows them.
func (sc *layerScratch) reset(h, cells int) {
	if h != sc.hid || cells > sc.capCells {
		c := cells
		if h == sc.hid && c < sc.capCells {
			c = sc.capCells
		}
		sc.hid, sc.capCells = h, c
		sc.wxFull = tensor.NewMatrix(c, 4*h)
		sc.uo = tensor.NewVector(h)
		ficBuf := tensor.NewVector(3 * h)
		sc.uf, sc.ui, sc.uc = ficBuf[:h], ficBuf[h:2*h], ficBuf[2*h:]
		sc.fic = []tensor.Vector{sc.uf, sc.ui, sc.uc}
		sc.skip = make([]bool, h)
		sc.osBuf = make([]float32, c*h)
		sc.hsABuf = make([]float32, c*h)
		sc.hsBBuf = make([]float32, c*h)
		sc.os = make([]tensor.Vector, c)
		sc.hsA = make([]tensor.Vector, c)
		sc.hsB = make([]tensor.Vector, c)
		for i := 0; i < c; i++ {
			sc.os[i] = sc.osBuf[i*h : (i+1)*h]
			sc.hsA[i] = sc.hsABuf[i*h : (i+1)*h]
			sc.hsB[i] = sc.hsBBuf[i*h : (i+1)*h]
		}
		sc.stBuf = make([]float32, 2*c*h)
		sc.states = make([]cellState, c)
		sc.subOf = make([]int, c)
		sc.wx = nil
	}
	if sc.wx == nil || sc.wx.Rows != cells {
		sc.wx = sc.wxFull.RowBlock(0, cells)
	}
	sc.cells = cells
}

// state binds sub-layer si's (h, c) pair to its arena slots without
// initializing the contents.
func (sc *layerScratch) state(si int) *cellState {
	h := sc.hid
	sc.states[si] = cellState{
		h: sc.stBuf[2*si*h : (2*si+1)*h],
		c: sc.stBuf[(2*si+1)*h : (2*si+2)*h],
	}
	return &sc.states[si]
}

// zeroState binds and zeroes sub-layer si's state.
func (sc *layerScratch) zeroState(si int) *cellState {
	st := sc.state(si)
	st.h.Fill(0)
	st.c.Fill(0)
	return st
}

// nextHS flips the ping-pong and returns the hidden-output views for the
// current layer: the previous layer's outputs (this layer's inputs)
// stay valid in the other slab.
func (sc *layerScratch) nextHS() []tensor.Vector {
	sc.ping = !sc.ping
	if sc.ping {
		return sc.hsA[:sc.cells]
	}
	return sc.hsB[:sc.cells]
}

// cellState is the (h, c) pair carried along one sub-layer.
type cellState struct {
	h, c tensor.Vector
}

func (n *Network) runLayer(li int, l *Layer, xs []tensor.Vector, opt RunOptions, lt *LayerTrace, sc *layerScratch, kc tensor.KernelChain) []tensor.Vector {
	nCells := len(xs)
	h := l.Hidden
	pw := l.packedWeights()
	sc.reset(h, nCells)

	// Step 2 of Algorithm 1: the per-layer Sgemm(W_{f,i,c,o}, x) as one
	// united packed GEMM — all layer inputs are ready up-front on mobile
	// GPUs (§II-C), so the whole layer's input projections are a single
	// weight stream. Row t of wx holds cell t's united pre-activation.
	kc.PackedGemm(sc.wx, pw.w, xs)
	wrow := func(t int) (xf, xi, xc, xo tensor.Vector) {
		row := sc.wx.Row(t)
		return row[:h], row[h : 2*h], row[2*h : 3*h], row[3*h:]
	}

	if !opt.Inter {
		// Sequential flow: one sub-layer, every cell its own tissue. The
		// united recurrent stream is split per cell into the U_o view
		// (o_t first, Algorithm 3 lines 4-6) and the U_{f,i,c} block.
		if lt != nil {
			lt.SublayerSizes = []int{nCells}
			ts := make([]int, nCells)
			for i := range ts {
				ts[i] = 1
			}
			lt.TissueSizes = ts
		}
		st := sc.zeroState(0)
		hs := sc.nextHS()
		o := sc.os[0]
		for t := 0; t < nCells; t++ {
			xf, xi, xc, xo := wrow(t)
			kc.Gemv(sc.uo, pw.uo, st.h)
			for j := 0; j < h; j++ {
				o[j] = n.Gate.Apply(xo[j] + sc.uo[j] + l.Bo[j])
			}
			var skip []bool
			var skipCount int
			if opt.Intra {
				skip, skipCount = intracell.TissueTrivialRowsInto(sc.skip, sc.os[:1], opt.AlphaIntra)
			}
			if lt != nil && opt.Intra {
				lt.SkipCounts = append(lt.SkipCounts, skipCount)
			}
			n.stepFIC(l, pw, st, xf, xi, xc, o, skip, sc, kc)
			copy(hs[t], st.h)
		}
		return hs
	}

	// Layer division (Fig. 10 step 5): relevance per link, breakpoints,
	// sub-layers.
	var subs [][]int
	if nCells > 1 {
		an := l.Analyzer()
		rel := make([]float64, nCells-1)
		for t := 1; t < nCells; t++ {
			xf, xi, xc, xo := wrow(t)
			rel[t-1] = an.Relevance(xf, xi, xc, xo)
		}
		breaks := intercell.Breakpoints(rel, opt.AlphaInter)
		subs = intercell.Sublayers(nCells, breaks)
		if lt != nil {
			lt.Relevance = rel
			lt.Breakpoints = breaks
		}
	} else {
		subs = intercell.Sublayers(nCells, nil)
	}

	// Tissue re-organization (Fig. 10 steps 7-8).
	tissues := intercell.AlignTissues(subs, opt.MTS)
	if lt != nil {
		lt.SublayerSizes = intercell.TissueSizes(subs)
		lt.TissueSizes = intercell.TissueSizes(tissues)
	}

	// Sub-layer lookup and initial states: sub-layer 0 starts from the
	// layer's zero initial state; every later sub-layer starts from the
	// predicted context link (Fig. 10 step 6).
	subOf := sc.subOf[:nCells]
	for si, s := range subs {
		for _, c := range s {
			subOf[c] = si
		}
	}
	states := sc.states[:len(subs)]
	for si := range states {
		if si == 0 {
			sc.zeroState(si)
			continue
		}
		st := sc.state(si)
		p := opt.Predictors[li]
		copy(st.h, p.H)
		copy(st.c, p.C)
	}

	hs := sc.nextHS()
	for _, tissue := range tissues {
		// First the output gates of every cell in the tissue — in the
		// DRS flow o_t must exist before U_{f,i,c} is touched
		// (Algorithm 3 lines 4-6); in the combined flow the tissue's
		// shared skip set is the intersection across its cells.
		os := sc.os[:len(tissue)]
		for oi, cell := range tissue {
			st := &states[subOf[cell]]
			_, _, _, xo := wrow(cell)
			kc.Gemv(sc.uo, pw.uo, st.h)
			o := os[oi]
			for j := 0; j < h; j++ {
				o[j] = n.Gate.Apply(xo[j] + sc.uo[j] + l.Bo[j])
			}
		}
		var skip []bool
		var skipCount int
		if opt.Intra {
			skip, skipCount = intracell.TissueTrivialRowsInto(sc.skip, os, opt.AlphaIntra)
		}
		if lt != nil {
			lt.SkipCounts = append(lt.SkipCounts, skipCount)
		}
		// Then the f, i, c gates (with trivial rows disabled) and the
		// element-wise state update per cell.
		for ci, cell := range tissue {
			st := &states[subOf[cell]]
			xf, xi, xc, _ := wrow(cell)
			n.stepFIC(l, pw, st, xf, xi, xc, os[ci], skip, sc, kc)
			copy(hs[cell], st.h)
		}
	}
	return hs
}

// stepFIC completes one cell given its output gate: computes f_t, i_t,
// the candidate, and updates (c, h) in place. Rows marked in skip are not
// computed; their c and h elements are approximated to zero (§V-A). The
// three recurrent products are one united pass over the U_{f,i,c} block
// of the packed matrix — the recurrent input streams once across all
// three gates, and the skip mask disables a row in all of them at once.
func (n *Network) stepFIC(l *Layer, pw *packedWeights, st *cellState, xf, xi, xc, o tensor.Vector, skip []bool, s *layerScratch, kc tensor.KernelChain) {
	h := l.Hidden
	kc.PackedGemvRows(s.fic, pw.ufic, st.h, skip, 0)
	for j := 0; j < h; j++ {
		if skip != nil && skip[j] {
			st.c[j] = 0
			st.h[j] = 0
			continue
		}
		f := n.Gate.Apply(xf[j] + s.uf[j] + l.Bf[j])
		i := n.Gate.Apply(xi[j] + s.ui[j] + l.Bi[j])
		g := tensor.Tanh(xc[j] + s.uc[j] + l.Bc[j])
		c := f*st.c[j] + i*g
		st.c[j] = c
		st.h[j] = o[j] * tensor.Tanh(c)
	}
}

// CollectPredictors executes the unmodified network over a set of
// sequences and returns the Eq. 6 predicted context link per layer — the
// offline step 4 of Fig. 10. Every observed (h_t, c_t) pair contributes;
// the paper collects the full link distribution, not only weak links.
func CollectPredictors(n *Network, samples [][]tensor.Vector) []intercell.Predictor {
	stats := make([]*intercell.LinkStats, len(n.Layers))
	for i, l := range n.Layers {
		stats[i] = intercell.NewLinkStats(l.Hidden)
	}
	var sc *layerScratch
	for _, xs := range samples {
		if sc == nil {
			sc = newLayerScratch(n.Hidden(), len(xs))
		}
		seq := xs
		for li, l := range n.Layers {
			seq = observeLayer(n, l, seq, stats[li], sc)
		}
	}
	out := make([]intercell.Predictor, len(n.Layers))
	for i, s := range stats {
		out[i] = s.Predictor()
	}
	return out
}

// observeLayer runs one layer exactly and feeds every context link to the
// accumulator, returning the hidden sequence for the next layer (backed
// by the scratch ping-pong slab, valid until the layer after next).
func observeLayer(n *Network, l *Layer, xs []tensor.Vector, ls *intercell.LinkStats, sc *layerScratch) []tensor.Vector {
	h := l.Hidden
	pw := l.packedWeights()
	sc.reset(h, len(xs))
	tensor.PackedGemm(sc.wx, pw.w, xs)
	st := sc.zeroState(0)
	hs := sc.nextHS()
	o := sc.os[0]
	for t := range xs {
		row := sc.wx.Row(t)
		xf, xi, xc, xo := row[:h], row[h:2*h], row[2*h:3*h], row[3*h:]
		// o_t first (same math as Run, no skipping).
		tensor.Gemv(sc.uo, pw.uo, st.h)
		for j := 0; j < h; j++ {
			o[j] = n.Gate.Apply(xo[j] + sc.uo[j] + l.Bo[j])
		}
		n.stepFIC(l, pw, st, xf, xi, xc, o, nil, sc, tensor.ChainSSE2)
		copy(hs[t], st.h)
		ls.Observe(st.h, st.c)
	}
	return hs
}
