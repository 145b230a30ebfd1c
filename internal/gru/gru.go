// Package gru applies the paper's optimizations to Gated Recurrent Unit
// networks — the extension the paper sketches in §II-B ("the proposed
// methods can also be applied to GRUs with simple adjustment").
//
// The GRU cell:
//
//	z_t = sigma(W_z x_t + U_z h_{t-1} + b_z)        (update gate)
//	r_t = sigma(W_r x_t + U_r h_{t-1} + b_r)        (reset gate)
//	~h_t = tanh(W_h x_t + U_h (r_t .* h_{t-1}) + b_h)
//	h_t  = (1 - z_t) .* h_{t-1} + z_t .* ~h_t
//
// The adjustments:
//
//   - Inter-cell: the context link carries h_{t-1} both directly (the
//     (1-z) carry) and through the gates. A link is weak for element j
//     only if the update gate is pinned open (z_t[j] ~ 1, killing the
//     carry) AND the candidate's activation input range is saturated.
//     Relevance mirrors Algorithm 2's overlap geometry over those two
//     conditions.
//   - Intra-cell (DRS): the update gate plays the output-filter role.
//     Where z_t[j] < alpha, h_t[j] ~ h_{t-1}[j] and the candidate row j
//     of U_h need not be loaded or computed — the skip approximates
//     h_t[j] by its carry, not by zero. Only the U_h block (a third of
//     the united matrix) is skippable, so GRU-DRS compresses less than
//     LSTM-DRS, but the skip is also gentler on accuracy.
package gru

import (
	"mobilstm/internal/intercell"
	"mobilstm/internal/rng"
	"mobilstm/internal/tensor"
)

// Layer holds one GRU layer's weights, shared by all unrolled cells.
type Layer struct {
	Hidden, Input int

	Wz, Wr, Wh *tensor.Matrix // (Hidden x Input)
	Uz, Ur, Uh *tensor.Matrix // (Hidden x Hidden)
	Bz, Br, Bh tensor.Vector

	// packedCache caches the united weight views (packed.go); mutate a
	// weight matrix after construction only through code that calls
	// Invalidate.
	packedCache
}

// NewLayer returns a zero-weight layer.
func NewLayer(hidden, input int) *Layer {
	return &Layer{
		Hidden: hidden, Input: input,
		Wz: tensor.NewMatrix(hidden, input), Wr: tensor.NewMatrix(hidden, input),
		Wh: tensor.NewMatrix(hidden, input),
		Uz: tensor.NewMatrix(hidden, hidden), Ur: tensor.NewMatrix(hidden, hidden),
		Uh: tensor.NewMatrix(hidden, hidden),
		Bz: tensor.NewVector(hidden), Br: tensor.NewVector(hidden), Bh: tensor.NewVector(hidden),
	}
}

// UnitedUBytes is the footprint of the united U_{z,r,h} matrix.
func (l *Layer) UnitedUBytes() int64 {
	return 3 * int64(l.Hidden) * int64(l.Hidden) * 4
}

// Network is a stack of GRU layers with a linear head.
type Network struct {
	Layers   []*Layer
	Head     *tensor.Matrix
	HeadBias tensor.Vector
}

// NewNetwork builds a zero-weight GRU network.
func NewNetwork(input, hidden, layers, classes int) *Network {
	if layers < 1 || classes < 1 {
		tensor.Panicf("gru: network needs at least one layer and one class")
	}
	n := &Network{}
	in := input
	for i := 0; i < layers; i++ {
		n.Layers = append(n.Layers, NewLayer(hidden, in))
		in = hidden
	}
	n.Head = tensor.NewMatrix(classes, hidden)
	n.HeadBias = tensor.NewVector(classes)
	return n
}

// InitRandom fills the network with the synthetic trained-weight
// distribution, mirroring the LSTM generator: linkScale sets the
// per-layer recurrent magnitude, carryFrac the fraction of units whose
// update-gate bias sits low (z ~ 0, DRS-carry-prone).
func (n *Network) InitRandom(r *rng.RNG, linkScale func(layer int) float64, carryFrac float64) {
	for li, l := range n.Layers {
		d := 1.0
		if linkScale != nil {
			d = linkScale(li)
		}
		initLayer(r.Split(), l, d, carryFrac)
	}
	hr := r.Split()
	scale := 1.4 / sqrtf(float64(n.Head.Cols))
	for i := range n.Head.Data {
		n.Head.Data[i] = hr.NormF32(0, scale)
	}
	for i := range n.HeadBias {
		n.HeadBias[i] = hr.NormF32(0, 0.1)
	}
}

func initLayer(r *rng.RNG, l *Layer, dTarget, carryFrac float64) {
	defer l.Invalidate()
	h := float64(l.Hidden)
	sigmaU := dTarget / (h * 0.7979)
	for _, u := range []*tensor.Matrix{l.Uz, l.Ur, l.Uh} {
		for i := range u.Data {
			u.Data[i] = r.NormF32(0, sigmaU)
		}
	}
	sigmaW := 1.2 / sqrtf(float64(l.Input))
	for _, w := range []*tensor.Matrix{l.Wz, l.Wr, l.Wh} {
		for i := range w.Data {
			w.Data[i] = r.NormF32(0, sigmaW)
		}
	}
	// Update-gate bias spread places ~carryFrac of units below the
	// mid DRS threshold (z < 0.25: carry-dominated, DRS-trivial
	// candidate rows). The anchor is deliberately higher than the
	// LSTM's: a unit with z pinned at 0 carries its state forever, so
	// its context link can never be cut — keeping most carry units at
	// z ~ 0.1-0.25 bounds the carry memory to a few cells.
	muZ := logit(0.25) - probit(carryFrac)*2.0
	for j := 0; j < l.Hidden; j++ {
		l.Bz[j] = r.NormF32(muZ, 1.6)
		l.Br[j] = r.NormF32(0.2, 0.4)
		l.Bh[j] = r.NormF32(0, 0.3)
	}
}

// RunOptions selects the execution mode (mirrors lstm.RunOptions).
type RunOptions struct {
	Inter      bool
	AlphaInter float64
	MTS        int
	Predictors []intercell.Predictor // only the H vector is used

	Intra      bool
	AlphaIntra float64

	// Chain selects the accumulation chain (see lstm.RunOptions.Chain):
	// ChainAuto follows the process default, ChainAVX2 opts into the
	// wide FMA fast mode with its own wide-vs-wide bitwise contract.
	Chain tensor.KernelChain

	Trace *Trace
}

// Baseline returns exact-flow options.
func Baseline() RunOptions { return RunOptions{} }

// Trace records structural decisions (see lstm.Trace).
type Trace struct {
	Layers []LayerTrace
}

// LayerTrace is the per-layer record.
type LayerTrace struct {
	Layer         int
	Cells         int
	Relevance     []float64
	Breakpoints   []int
	SublayerSizes []int
	TissueSizes   []int
	SkipCounts    []int
}

// Run executes the network on one sequence and returns the logits. Like
// lstm.Run, the layer loop owns one scratch arena for the whole call, so
// the hot path performs no per-cell allocation.
func (n *Network) Run(xs []tensor.Vector, opt RunOptions) tensor.Vector {
	if len(xs) == 0 {
		tensor.Panicf("gru: empty input sequence")
	}
	if opt.Inter {
		if opt.MTS < 1 {
			tensor.Panicf("gru: Inter mode requires MTS >= 1")
		}
		if len(opt.Predictors) != len(n.Layers) {
			tensor.Panicf("gru: %d predictors for %d layers", len(opt.Predictors), len(n.Layers))
		}
	}
	kc := tensor.ResolveChain(opt.Chain)
	sc := newLayerScratch(n.Layers[0].Hidden, len(xs))
	seq := xs
	for li, l := range n.Layers {
		var lt *LayerTrace
		if opt.Trace != nil {
			opt.Trace.Layers = append(opt.Trace.Layers, LayerTrace{Layer: li, Cells: len(seq)})
			lt = &opt.Trace.Layers[len(opt.Trace.Layers)-1]
		}
		seq = n.runLayer(li, l, seq, opt, lt, sc, kc)
	}
	last := seq[len(seq)-1]
	logits := tensor.NewVector(n.Head.Rows)
	kc.Gemv(logits, n.Head, last)
	tensor.Add(logits, logits, n.HeadBias)
	return logits
}

// Classify returns the argmax class.
func (n *Network) Classify(xs []tensor.Vector, opt RunOptions) int {
	return tensor.ArgMax(n.Run(xs, opt))
}

// layerScratch is the arena behind one GRU forward pass, mirroring the
// LSTM arena: per-cell buffers are carved out of a few growth-only
// slabs, and hidden outputs use two ping-pong slabs because layer k+1
// reads layer k's outputs while producing its own.
type layerScratch struct {
	hid      int
	cells    int
	capCells int

	wxFull *tensor.Matrix // capCells × 3h united W·x slab
	wx     *tensor.Matrix // first `cells` rows; row t = [xz|xr|xh]

	uz, ur tensor.Vector   // U_{z,r} · h_{t-1}, views into one 2h slab
	zr     []tensor.Vector // {uz, ur}: the PackedGemv destinations
	uh, rh tensor.Vector   // U_h · (r ⊙ h_{t-1}) and its operand

	zs, rs     []tensor.Vector // per-tissue update/reset gates
	zBuf, rBuf []float32
	skip       []bool

	hsA, hsB       []tensor.Vector // ping-pong per-cell hidden outputs
	hsABuf, hsBBuf []float32
	ping           bool

	states []tensor.Vector // per-sub-layer h, views into stBuf
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
		sc.wxFull = tensor.NewMatrix(c, 3*h)
		zrBuf := tensor.NewVector(2 * h)
		sc.uz, sc.ur = zrBuf[:h], zrBuf[h:]
		sc.zr = []tensor.Vector{sc.uz, sc.ur}
		sc.uh = tensor.NewVector(h)
		sc.rh = tensor.NewVector(h)
		sc.skip = make([]bool, h)
		sc.zBuf = make([]float32, c*h)
		sc.rBuf = make([]float32, c*h)
		sc.hsABuf = make([]float32, c*h)
		sc.hsBBuf = make([]float32, c*h)
		sc.zs = make([]tensor.Vector, c)
		sc.rs = make([]tensor.Vector, c)
		sc.hsA = make([]tensor.Vector, c)
		sc.hsB = make([]tensor.Vector, c)
		for i := 0; i < c; i++ {
			sc.zs[i] = sc.zBuf[i*h : (i+1)*h]
			sc.rs[i] = sc.rBuf[i*h : (i+1)*h]
			sc.hsA[i] = sc.hsABuf[i*h : (i+1)*h]
			sc.hsB[i] = sc.hsBBuf[i*h : (i+1)*h]
		}
		sc.stBuf = make([]float32, c*h)
		sc.states = make([]tensor.Vector, c)
		sc.subOf = make([]int, c)
		sc.wx = nil
	}
	if sc.wx == nil || sc.wx.Rows != cells {
		sc.wx = sc.wxFull.RowBlock(0, cells)
	}
	sc.cells = cells
}

// state binds sub-layer si's hidden state to its arena slot without
// initializing the contents.
func (sc *layerScratch) state(si int) tensor.Vector {
	h := sc.hid
	sc.states[si] = sc.stBuf[si*h : (si+1)*h]
	return sc.states[si]
}

// nextHS flips the ping-pong and returns the hidden-output views for the
// current layer.
func (sc *layerScratch) nextHS() []tensor.Vector {
	sc.ping = !sc.ping
	if sc.ping {
		return sc.hsA[:sc.cells]
	}
	return sc.hsB[:sc.cells]
}

func (n *Network) runLayer(li int, l *Layer, xs []tensor.Vector, opt RunOptions, lt *LayerTrace, sc *layerScratch, kc tensor.KernelChain) []tensor.Vector {
	nCells := len(xs)
	h := l.Hidden
	pw := l.packedWeights()
	sc.reset(h, nCells)

	// United input projections for the whole layer: one weight stream
	// over W_{z,r,h} (the §II-B counterpart of the LSTM's united
	// Sgemm(W_{f,i,c,o}, x)). Row t of wx is cell t's [xz|xr|xh].
	kc.PackedGemm(sc.wx, pw.w, xs)
	wrow := func(t int) (xz, xr, xh tensor.Vector) {
		row := sc.wx.Row(t)
		return row[:h], row[h : 2*h], row[2*h:]
	}

	if !opt.Inter {
		// Sequential flow: one sub-layer, every cell its own tissue —
		// identical math to the generic path below with tissues of one,
		// without materializing the per-cell tissue slices.
		if lt != nil {
			lt.SublayerSizes = []int{nCells}
			ts := make([]int, nCells)
			for i := range ts {
				ts[i] = 1
			}
			lt.TissueSizes = ts
		}
		st := sc.state(0)
		st.Fill(0)
		hs := sc.nextHS()
		z, rv := sc.zs[0], sc.rs[0]
		for t := 0; t < nCells; t++ {
			kc.PackedGemv(sc.zr, pw.uzr, st)
			xz, xr, xh := wrow(t)
			for j := 0; j < h; j++ {
				z[j] = tensor.Sigmoid(xz[j] + sc.uz[j] + l.Bz[j])
				rv[j] = tensor.Sigmoid(xr[j] + sc.ur[j] + l.Br[j])
			}
			var skip []bool
			var skipCount int
			if opt.Intra {
				skip, skipCount = tissueCarryRowsInto(sc.skip, sc.zs[:1], opt.AlphaIntra)
			}
			if lt != nil && opt.Intra {
				lt.SkipCounts = append(lt.SkipCounts, skipCount)
			}
			tensor.Mul(sc.rh, rv, st)
			kc.GemvRows(sc.uh, l.Uh, sc.rh, skip, 0)
			hNew := hs[t]
			for j := 0; j < h; j++ {
				if skip != nil && skip[j] {
					hNew[j] = st[j]
					continue
				}
				cand := tensor.Tanh(xh[j] + sc.uh[j] + l.Bh[j])
				hNew[j] = (1-z[j])*st[j] + z[j]*cand
			}
			copy(st, hNew)
		}
		return hs
	}

	var subs [][]int
	if nCells > 1 {
		an := newAnalyzer(l)
		rel := make([]float64, nCells-1)
		for t := 1; t < nCells; t++ {
			xz, xr, xh := wrow(t)
			rel[t-1] = an.relevance(xz, xr, xh)
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
	tissues := intercell.AlignTissues(subs, opt.MTS)
	if lt != nil {
		lt.SublayerSizes = intercell.TissueSizes(subs)
		lt.TissueSizes = intercell.TissueSizes(tissues)
	}

	subOf := sc.subOf[:nCells]
	for si, s := range subs {
		for _, c := range s {
			subOf[c] = si
		}
	}
	states := sc.states[:len(subs)]
	for si := range states {
		st := sc.state(si)
		if si == 0 {
			st.Fill(0)
			continue
		}
		copy(st, opt.Predictors[li].H)
	}

	hs := sc.nextHS()
	for _, tissue := range tissues {
		// z and r first for every cell in the tissue: z gates the DRS
		// decision, and both need only h_{t-1} — so U_z and U_r run as
		// one united stream per cell.
		zs, rs := sc.zs[:len(tissue)], sc.rs[:len(tissue)]
		for ci, cell := range tissue {
			hPrev := states[subOf[cell]]
			kc.PackedGemv(sc.zr, pw.uzr, hPrev)
			xz, xr, _ := wrow(cell)
			z, rv := zs[ci], rs[ci]
			for j := 0; j < h; j++ {
				z[j] = tensor.Sigmoid(xz[j] + sc.uz[j] + l.Bz[j])
				rv[j] = tensor.Sigmoid(xr[j] + sc.ur[j] + l.Br[j])
			}
		}
		// The tissue's shared skip set: candidate rows whose update gate
		// is near zero for every cell in the tissue.
		var skip []bool
		var skipCount int
		if opt.Intra {
			skip, skipCount = tissueCarryRowsInto(sc.skip, zs, opt.AlphaIntra)
		}
		if lt != nil {
			lt.SkipCounts = append(lt.SkipCounts, skipCount)
		}
		for ci, cell := range tissue {
			hPrev := states[subOf[cell]]
			tensor.Mul(sc.rh, rs[ci], hPrev)
			kc.GemvRows(sc.uh, l.Uh, sc.rh, skip, 0)
			z := zs[ci]
			_, _, xh := wrow(cell)
			hNew := hs[cell]
			for j := 0; j < h; j++ {
				if skip != nil && skip[j] {
					// Carry: h_t[j] ~ h_{t-1}[j] since z[j] ~ 0.
					hNew[j] = hPrev[j]
					continue
				}
				cand := tensor.Tanh(xh[j] + sc.uh[j] + l.Bh[j])
				hNew[j] = (1-z[j])*hPrev[j] + z[j]*cand
			}
			// Advance the sub-layer state in place; hNew stays valid in
			// the ping-pong slab as the layer output.
			copy(hPrev, hNew)
		}
	}
	return hs
}

// tissueCarryRows marks candidate rows skippable for a whole tissue: the
// update gate must be near zero for every cell in it.
func tissueCarryRows(zs []tensor.Vector, alpha float64) ([]bool, int) {
	if alpha <= 0 || len(zs) == 0 {
		return nil, 0
	}
	return tissueCarryRowsInto(make([]bool, len(zs[0])), zs, alpha)
}

// tissueCarryRowsInto is tissueCarryRows writing the mask into a
// caller-owned buffer, so per-tissue calls on the hot path do not
// allocate. Every element of dst is rewritten.
func tissueCarryRowsInto(dst []bool, zs []tensor.Vector, alpha float64) ([]bool, int) {
	if alpha <= 0 || len(zs) == 0 {
		return nil, 0
	}
	dim := len(zs[0])
	if len(dst) != dim {
		tensor.Panicf("gru: tissueCarryRowsInto mask length %d, want %d", len(dst), dim)
	}
	a := float32(alpha)
	count := 0
	for j := 0; j < dim; j++ {
		carry := true
		for _, z := range zs {
			if z[j] >= a {
				carry = false
				break
			}
		}
		dst[j] = carry
		if carry {
			count++
		}
	}
	return dst, count
}

// CollectPredictors runs the exact flow over the sequences and returns
// the Eq. 6 mean-link predictor per layer (GRUs have no cell state, so
// only the H vector is meaningful).
func CollectPredictors(n *Network, samples [][]tensor.Vector) []intercell.Predictor {
	stats := make([]*intercell.LinkStats, len(n.Layers))
	for i, l := range n.Layers {
		stats[i] = intercell.NewLinkStats(l.Hidden)
	}
	zero := map[int]tensor.Vector{}
	for i, l := range n.Layers {
		zero[i] = tensor.NewVector(l.Hidden)
	}
	var sc *layerScratch
	for _, xs := range samples {
		if sc == nil {
			sc = newLayerScratch(n.Layers[0].Hidden, len(xs))
		}
		seq := xs
		for li, l := range n.Layers {
			// Predictors are offline artifacts shared across chains:
			// always collect them on the canonical chain.
			hs := n.runLayer(li, l, seq, Baseline(), nil, sc, tensor.ChainSSE2)
			for _, h := range hs {
				stats[li].Observe(h, zero[li])
			}
			seq = hs
		}
	}
	out := make([]intercell.Predictor, len(n.Layers))
	for i, s := range stats {
		out[i] = s.Predictor()
	}
	return out
}
