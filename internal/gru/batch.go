package gru

import (
	"mobilstm/internal/tensor"
)

// The GRU batch-B forward path, mirroring the LSTM's: per timestep the
// active members' recurrent products run as batched united GEMMs
// (U_{z,r}, then U_h under the per-member carry masks), so the
// recurrent weights stream once for the whole batch instead of once
// per member. Output i of RunBatch(seqs...) is bitwise identical to
// serial Run(seqs[i]) in every mode, at every GOMAXPROCS — the batched
// kernels evaluate the same dotRow chains and float32 expressions in
// the same order; only the loop that walks them changes. Ragged
// lengths batch in lockstep: short members drop out of the active set
// when they finish, with no padding compute.

// RunBatch executes the network on a batch of input sequences and
// returns one logits vector per member, bitwise identical to Run on
// each member alone. A non-nil opt.Trace rejects the batch (tracing is
// per-sequence); Inter mode falls back to per-member execution over
// one shared arena, since its structure is data-dependent per member.
func (n *Network) RunBatch(seqs [][]tensor.Vector, opt RunOptions) []tensor.Vector {
	n.checkBatch(seqs, opt)
	if opt.Inter {
		return n.runBatchSerial(seqs, opt)
	}

	lens := make([]int, len(seqs))
	total := 0
	for i, xs := range seqs {
		lens[i] = len(xs)
		total += len(xs)
	}
	kc := tensor.ResolveChain(opt.Chain)
	sc := newBatchScratch(n.Layers[0].Hidden, lens)

	flat := make([]tensor.Vector, 0, total)
	for _, xs := range seqs {
		flat = append(flat, xs...)
	}
	seq := flat
	for _, l := range n.Layers {
		seq = n.runLayerBatch(l, seq, opt, sc, kc)
	}
	out := make([]tensor.Vector, len(seqs))
	for i := range seqs {
		out[i] = n.headLogits(seq[sc.offs[i]+sc.lens[i]-1], kc)
	}
	return out
}

// RunBatchE is the error-returning RunBatch (tensor.Guard boundary).
func (n *Network) RunBatchE(seqs [][]tensor.Vector, opt RunOptions) (logits []tensor.Vector, err error) {
	defer tensor.Guard(&err)
	return n.RunBatch(seqs, opt), nil
}

// ClassifyBatch runs the batch and returns the argmax class per member.
func (n *Network) ClassifyBatch(seqs [][]tensor.Vector, opt RunOptions) []int {
	outs := n.RunBatch(seqs, opt)
	classes := make([]int, len(outs))
	for i, logits := range outs {
		classes[i] = tensor.ArgMax(logits)
	}
	return classes
}

// ClassifyBatchE is the error-returning ClassifyBatch.
func (n *Network) ClassifyBatchE(seqs [][]tensor.Vector, opt RunOptions) (classes []int, err error) {
	defer tensor.Guard(&err)
	return n.ClassifyBatch(seqs, opt), nil
}

// headLogits applies the linear head to a final hidden state, returning
// freshly allocated logits (never an arena view).
func (n *Network) headLogits(last tensor.Vector, kc tensor.KernelChain) tensor.Vector {
	logits := tensor.NewVector(n.Head.Rows)
	kc.Gemv(logits, n.Head, last)
	tensor.Add(logits, logits, n.HeadBias)
	return logits
}

// checkBatch applies Run's validation across the batch.
func (n *Network) checkBatch(seqs [][]tensor.Vector, opt RunOptions) {
	if len(seqs) == 0 {
		tensor.Panicf("gru: empty batch")
	}
	for i, xs := range seqs {
		if len(xs) == 0 {
			tensor.Panicf("gru: batch member %d is an empty input sequence", i)
		}
	}
	if opt.Trace != nil {
		tensor.Panicf("gru: Trace is per-sequence; run batch members serially to trace")
	}
	if opt.Inter {
		if opt.MTS < 1 {
			tensor.Panicf("gru: Inter mode requires MTS >= 1")
		}
		if len(opt.Predictors) != len(n.Layers) {
			tensor.Panicf("gru: %d predictors for %d layers", len(opt.Predictors), len(n.Layers))
		}
	}
}

// runBatchSerial is the Inter-mode batch path: members run one at a
// time through the serial layer flow, sharing one arena.
func (n *Network) runBatchSerial(seqs [][]tensor.Vector, opt RunOptions) []tensor.Vector {
	maxLen := 0
	for _, xs := range seqs {
		if len(xs) > maxLen {
			maxLen = len(xs)
		}
	}
	sc := newLayerScratch(n.Layers[0].Hidden, maxLen)
	kc := tensor.ResolveChain(opt.Chain)
	out := make([]tensor.Vector, len(seqs))
	for i, xs := range seqs {
		seq := xs
		for li, l := range n.Layers {
			seq = n.runLayer(li, l, seq, opt, nil, sc, kc)
		}
		out[i] = n.headLogits(seq[len(seq)-1], kc)
	}
	return out
}

// batchScratch is the arena behind one batched GRU forward pass,
// mirroring the LSTM batch arena: flat slabs per cell (wx, hidden
// ping-pong), per-member slabs for gates, masks, states and the r⊙h
// operand. Growth-only.
type batchScratch struct {
	hid        int
	members    int
	capMembers int
	total      int
	capTotal   int

	lens []int
	offs []int

	wxFull *tensor.Matrix // capTotal × 3h united W·x slab
	wx     *tensor.Matrix // first `total` rows; row offs[i]+t = member i cell t

	// Batched recurrent products of one step's active set: zrB rows are
	// [uz|ur] (2h wide), uhB rows are U_h·(r⊙h) (h wide). Views are
	// re-headed per step so the hot loop allocates nothing.
	zrBuf, uhBuf []float32
	zrB, uhB     tensor.Matrix

	zs, rs     []tensor.Vector // per-member update/reset gates
	zBuf, rBuf []float32
	rhs        []tensor.Vector // per-member r ⊙ h_{t-1} (the U_h operand)
	rhBuf      []float32

	masks   [][]bool // per-member carry masks, views into maskBuf
	maskBuf []bool
	skips   [][]bool        // active members' masks for PackedGemmRows
	zsOne   []tensor.Vector // single-cell tissue argument for the carry scan

	hsA, hsB       []tensor.Vector
	hsABuf, hsBBuf []float32
	ping           bool

	states []tensor.Vector // per-member h, views into stBuf
	stBuf  []float32

	active []int
	gather []tensor.Vector
}

func newBatchScratch(h int, lens []int) *batchScratch {
	sc := &batchScratch{}
	sc.reset(h, lens)
	return sc
}

func (sc *batchScratch) reset(h int, lens []int) {
	members := len(lens)
	total := 0
	for _, ln := range lens {
		total += ln
	}
	if h != sc.hid || members > sc.capMembers || total > sc.capTotal {
		cm, ct := members, total
		if h == sc.hid {
			if cm < sc.capMembers {
				cm = sc.capMembers
			}
			if ct < sc.capTotal {
				ct = sc.capTotal
			}
		}
		sc.hid, sc.capMembers, sc.capTotal = h, cm, ct
		sc.wxFull = tensor.NewMatrix(ct, 3*h)
		sc.zrBuf = make([]float32, cm*2*h)
		sc.uhBuf = make([]float32, cm*h)
		sc.zBuf = make([]float32, cm*h)
		sc.rBuf = make([]float32, cm*h)
		sc.rhBuf = make([]float32, cm*h)
		sc.maskBuf = make([]bool, cm*h)
		sc.zs = make([]tensor.Vector, cm)
		sc.rs = make([]tensor.Vector, cm)
		sc.rhs = make([]tensor.Vector, cm)
		sc.masks = make([][]bool, cm)
		for i := 0; i < cm; i++ {
			sc.zs[i] = sc.zBuf[i*h : (i+1)*h]
			sc.rs[i] = sc.rBuf[i*h : (i+1)*h]
			sc.rhs[i] = sc.rhBuf[i*h : (i+1)*h]
			sc.masks[i] = sc.maskBuf[i*h : (i+1)*h]
		}
		sc.skips = make([][]bool, cm)
		sc.zsOne = make([]tensor.Vector, 1)
		sc.hsABuf = make([]float32, ct*h)
		sc.hsBBuf = make([]float32, ct*h)
		sc.hsA = make([]tensor.Vector, ct)
		sc.hsB = make([]tensor.Vector, ct)
		for i := 0; i < ct; i++ {
			sc.hsA[i] = sc.hsABuf[i*h : (i+1)*h]
			sc.hsB[i] = sc.hsBBuf[i*h : (i+1)*h]
		}
		sc.stBuf = make([]float32, cm*h)
		sc.states = make([]tensor.Vector, cm)
		sc.active = make([]int, cm)
		sc.gather = make([]tensor.Vector, cm)
		sc.lens = make([]int, 0, cm)
		sc.offs = make([]int, 0, cm)
		sc.wx = nil
	}
	sc.lens = append(sc.lens[:0], lens...)
	sc.offs = sc.offs[:0]
	off := 0
	for _, ln := range lens {
		sc.offs = append(sc.offs, off)
		off += ln
	}
	if sc.wx == nil || sc.wx.Rows != total {
		sc.wx = sc.wxFull.RowBlock(0, total)
	}
	sc.members, sc.total = members, total
}

// state binds member i's hidden state to its arena slot.
func (sc *batchScratch) state(i int) tensor.Vector {
	h := sc.hid
	sc.states[i] = sc.stBuf[i*h : (i+1)*h]
	return sc.states[i]
}

func (sc *batchScratch) nextHS() []tensor.Vector {
	sc.ping = !sc.ping
	if sc.ping {
		return sc.hsA[:sc.total]
	}
	return sc.hsB[:sc.total]
}

// zrView re-heads the scratch-owned U_{z,r} destination header over the
// first rows of its slab — the active-set view, without allocating.
func (sc *batchScratch) zrView(rows int) *tensor.Matrix {
	cols := 2 * sc.hid
	sc.zrB.Rows, sc.zrB.Cols, sc.zrB.Data = rows, cols, sc.zrBuf[:rows*cols]
	return &sc.zrB
}

// uhView is zrView for the h-wide U_h destination.
func (sc *batchScratch) uhView(rows int) *tensor.Matrix {
	sc.uhB.Rows, sc.uhB.Cols, sc.uhB.Data = rows, sc.hid, sc.uhBuf[:rows*sc.hid]
	return &sc.uhB
}

// runLayerBatch is the batched counterpart of runLayer's sequential
// flow.
func (n *Network) runLayerBatch(l *Layer, xs []tensor.Vector, opt RunOptions, sc *batchScratch, kc tensor.KernelChain) []tensor.Vector {
	h := l.Hidden
	pw := l.packedWeights()
	sc.reset(h, sc.lens)

	// United input projections for every cell of every member: one
	// weight stream over W_{z,r,h} for the whole batch.
	kc.PackedGemm(sc.wx, pw.w, xs)

	for i := range sc.lens {
		sc.state(i).Fill(0)
	}
	hs := sc.nextHS()
	maxLen := 0
	for _, ln := range sc.lens {
		if ln > maxLen {
			maxLen = ln
		}
	}
	for t := 0; t < maxLen; t++ {
		act := sc.active[:0]
		for i, ln := range sc.lens {
			if t < ln {
				act = append(act, i)
			}
		}
		g := sc.gather[:len(act)]
		for k, i := range act {
			g[k] = sc.states[i]
		}

		// z and r first, batched: U_{z,r} streams once for the active
		// set; z gates the carry (DRS) decision.
		zrB := sc.zrView(len(act))
		kc.PackedGemmRows(zrB, pw.uzr, g, nil, 0)
		for k, i := range act {
			row := sc.wx.Row(sc.offs[i] + t)
			xz, xr := row[:h], row[h:2*h]
			zr := zrB.Row(k)
			uz, ur := zr[:h], zr[h:]
			z, rv := sc.zs[i], sc.rs[i]
			for j := 0; j < h; j++ {
				z[j] = tensor.Sigmoid(xz[j] + uz[j] + l.Bz[j])
				rv[j] = tensor.Sigmoid(xr[j] + ur[j] + l.Br[j])
			}
		}

		// Per-member carry masks and the r ⊙ h_{t-1} operands.
		skips := sc.skips[:len(act)]
		for k, i := range act {
			skips[k] = nil
			if opt.Intra {
				sc.zsOne[0] = sc.zs[i]
				skips[k], _ = tissueCarryRowsInto(sc.masks[i], sc.zsOne, opt.AlphaIntra)
			}
			tensor.Mul(sc.rhs[i], sc.rs[i], sc.states[i])
		}
		rh := sc.gather[:len(act)] // reuse the gather slots for r⊙h
		for k, i := range act {
			rh[k] = sc.rhs[i]
		}

		// The candidate's recurrent product under the carry masks: U_h
		// streams once for the active set.
		uhB := sc.uhView(len(act))
		kc.PackedGemmRows(uhB, l.Uh, rh, skips, 0)

		for k, i := range act {
			st := sc.states[i]
			row := sc.wx.Row(sc.offs[i] + t)
			xh := row[2*h:]
			uh := uhB.Row(k)
			z := sc.zs[i]
			skip := skips[k]
			hNew := hs[sc.offs[i]+t]
			for j := 0; j < h; j++ {
				if skip != nil && skip[j] {
					// Carry: h_t[j] ~ h_{t-1}[j] since z[j] ~ 0.
					hNew[j] = st[j]
					continue
				}
				cand := tensor.Tanh(xh[j] + uh[j] + l.Bh[j])
				hNew[j] = (1-z[j])*st[j] + z[j]*cand
			}
			copy(st, hNew)
		}
	}
	return hs
}
