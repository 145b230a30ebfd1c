package lstm

import (
	"mobilstm/internal/intracell"
	"mobilstm/internal/tensor"
)

// The batch-B forward path: RunBatch executes B sequences together so
// the recurrent united weights stream once per timestep for the whole
// batch (tensor.PackedGemmRows — the Appleyard-style GEMV→GEMM
// conversion), instead of B independent GEMV chains re-streaming
// U_{f,i,c,o} per member. The serving loop dispatches a drained
// batching window through this path as one call.
//
// The contract mirrors the packed kernels': output i of
// RunBatch(seqs...) is bitwise identical to serial Run(seqs[i]) in
// every mode, at every GOMAXPROCS, cold or warm cache. The batched
// kernels evaluate exactly the same dotRow chains and element-wise
// float32 expressions in the same order as the serial flow; batching
// only changes which loop walks them.
//
// Ragged lengths batch together in lockstep: at timestep t only the
// members with t < len(member) are active — the batch shrinks as short
// members finish, with no padding compute, and each member's logits
// come from its own final hidden state.

// RunBatch executes the network on a batch of input sequences and
// returns one logits vector per member, bitwise identical to calling
// Run on each member alone. Members may have different (non-zero)
// lengths. Tracing is per-sequence instrumentation: a non-nil
// opt.Trace rejects the batch — trace members serially instead.
//
// Inter mode's structure (breakpoints, sub-layers, tissues) is
// data-dependent per member, so Inter batches fall back to per-member
// execution over one shared arena; the batched lockstep kernels drive
// the baseline and DRS (Intra) flows, where the serving loop runs.
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
	sc := newBatchScratch(n.Hidden(), lens)

	// The flat cell list concatenates member sequences in member order;
	// member i's cell t lives at offs[i]+t in every flat slab.
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

// RunBatchE is the serving-path RunBatch: validation and shape
// violations report as an error instead of a panic.
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

// ClassifyBatchE is the error-returning ClassifyBatch (the serving
// loop's batch dispatch entry point).
func (n *Network) ClassifyBatchE(seqs [][]tensor.Vector, opt RunOptions) (classes []int, err error) {
	defer tensor.Guard(&err)
	return n.ClassifyBatch(seqs, opt), nil
}

// checkBatch applies Run's validation across the batch.
func (n *Network) checkBatch(seqs [][]tensor.Vector, opt RunOptions) {
	if len(seqs) == 0 {
		tensor.Panicf("lstm: empty batch")
	}
	for i, xs := range seqs {
		if len(xs) == 0 {
			tensor.Panicf("lstm: batch member %d is an empty input sequence", i)
		}
	}
	if opt.Trace != nil {
		tensor.Panicf("lstm: Trace is per-sequence; run batch members serially to trace")
	}
	if opt.Inter {
		if opt.MTS < 1 {
			tensor.Panicf("lstm: Inter mode requires MTS >= 1")
		}
		if len(opt.Predictors) != len(n.Layers) {
			tensor.Panicf("lstm: %d predictors for %d layers", len(opt.Predictors), len(n.Layers))
		}
	}
}

// runBatchSerial is the Inter-mode batch path: members run one at a
// time through the serial layer flow, sharing a single arena. Bitwise
// identity with Run holds by construction — it is the same code.
func (n *Network) runBatchSerial(seqs [][]tensor.Vector, opt RunOptions) []tensor.Vector {
	maxLen := 0
	for _, xs := range seqs {
		if len(xs) > maxLen {
			maxLen = len(xs)
		}
	}
	sc := newLayerScratch(n.Hidden(), maxLen)
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

// batchScratch is the arena behind one batched forward pass. Flat slabs
// hold one row per cell of every member (wx, the hidden ping-pong);
// per-member slabs hold one row per batch member (states, output
// gates, DRS masks). Like layerScratch it is growth-only: slabs
// reallocate only when a later call sees a bigger shape.
type batchScratch struct {
	hid        int
	members    int
	capMembers int
	total      int // sum of member lengths
	capTotal   int

	lens []int // member lengths, fixed for the whole call
	offs []int // member cell offsets into the flat slabs

	wxFull *tensor.Matrix // capTotal × 4h united W·x slab
	wx     *tensor.Matrix // first `total` rows; row offs[i]+t = member i cell t

	// Batched recurrent products for the active members of one step:
	// row k is active member k's U_o·h (uoB, h wide) or U_{f,i,c}·h
	// (ficB, 3h wide). The views are re-headed per step so the hot loop
	// allocates nothing.
	uoBuf, ficBuf []float32
	uoB, ficB     tensor.Matrix

	os      []tensor.Vector // per-member output gates, views into osBuf
	osBuf   []float32
	masks   []([]bool) // per-member DRS mask buffers, views into maskBuf
	maskBuf []bool
	skips   [][]bool        // active members' masks for PackedGemmRows
	osOne   []tensor.Vector // single-cell tissue argument for the DRS scan

	hsA, hsB       []tensor.Vector // flat ping-pong per-cell hidden outputs
	hsABuf, hsBBuf []float32
	ping           bool

	states []cellState // per-member (h, c), views into stBuf
	stBuf  []float32

	active []int           // active member indices at the current step
	gather []tensor.Vector // active members' h_{t-1}
}

// newBatchScratch sizes an arena for the given member lengths.
func newBatchScratch(h int, lens []int) *batchScratch {
	sc := &batchScratch{}
	sc.reset(h, lens)
	return sc
}

// reset prepares the arena for a batch of the given shape, reallocating
// the slabs only when the shape outgrows them.
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
		sc.wxFull = tensor.NewMatrix(ct, 4*h)
		sc.uoBuf = make([]float32, cm*h)
		sc.ficBuf = make([]float32, cm*3*h)
		sc.osBuf = make([]float32, cm*h)
		sc.maskBuf = make([]bool, cm*h)
		sc.os = make([]tensor.Vector, cm)
		sc.masks = make([][]bool, cm)
		for i := 0; i < cm; i++ {
			sc.os[i] = sc.osBuf[i*h : (i+1)*h]
			sc.masks[i] = sc.maskBuf[i*h : (i+1)*h]
		}
		sc.skips = make([][]bool, cm)
		sc.osOne = make([]tensor.Vector, 1)
		sc.hsABuf = make([]float32, ct*h)
		sc.hsBBuf = make([]float32, ct*h)
		sc.hsA = make([]tensor.Vector, ct)
		sc.hsB = make([]tensor.Vector, ct)
		for i := 0; i < ct; i++ {
			sc.hsA[i] = sc.hsABuf[i*h : (i+1)*h]
			sc.hsB[i] = sc.hsBBuf[i*h : (i+1)*h]
		}
		sc.stBuf = make([]float32, 2*cm*h)
		sc.states = make([]cellState, cm)
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

// state binds member i's (h, c) pair to its arena slots.
func (sc *batchScratch) state(i int) *cellState {
	h := sc.hid
	sc.states[i] = cellState{
		h: sc.stBuf[2*i*h : (2*i+1)*h],
		c: sc.stBuf[(2*i+1)*h : (2*i+2)*h],
	}
	return &sc.states[i]
}

// nextHS flips the flat ping-pong and returns the per-cell hidden
// views of the current layer.
func (sc *batchScratch) nextHS() []tensor.Vector {
	sc.ping = !sc.ping
	if sc.ping {
		return sc.hsA[:sc.total]
	}
	return sc.hsB[:sc.total]
}

// uoView re-heads the scratch-owned U_o destination header over the
// first rows of its slab — the active-set view, without allocating.
func (sc *batchScratch) uoView(rows int) *tensor.Matrix {
	sc.uoB.Rows, sc.uoB.Cols, sc.uoB.Data = rows, sc.hid, sc.uoBuf[:rows*sc.hid]
	return &sc.uoB
}

// ficView is uoView for the 3h-wide U_{f,i,c} destination.
func (sc *batchScratch) ficView(rows int) *tensor.Matrix {
	cols := 3 * sc.hid
	sc.ficB.Rows, sc.ficB.Cols, sc.ficB.Data = rows, cols, sc.ficBuf[:rows*cols]
	return &sc.ficB
}

// runLayerBatch is the batched counterpart of runLayer's sequential
// flow: per timestep, the active members' recurrent products run as
// two batched united GEMMs (U_o, then U_{f,i,c} under the per-member
// DRS masks), and the element-wise state update walks each member with
// exactly the serial flow's expressions.
func (n *Network) runLayerBatch(l *Layer, xs []tensor.Vector, opt RunOptions, sc *batchScratch, kc tensor.KernelChain) []tensor.Vector {
	h := l.Hidden
	pw := l.packedWeights()
	sc.reset(h, sc.lens)

	// Step 2 of Algorithm 1 across the whole batch: every cell of every
	// member is ready up-front, so one united packed GEMM streams
	// W_{f,i,c,o} once for all of them.
	kc.PackedGemm(sc.wx, pw.w, xs)

	for i := range sc.lens {
		st := sc.state(i)
		st.h.Fill(0)
		st.c.Fill(0)
	}
	hs := sc.nextHS()
	maxLen := 0
	for _, ln := range sc.lens {
		if ln > maxLen {
			maxLen = ln
		}
	}
	for t := 0; t < maxLen; t++ {
		// The lockstep active set: members whose sequence still has a
		// cell at t. Short members simply drop out — no padding compute.
		act := sc.active[:0]
		for i, ln := range sc.lens {
			if t < ln {
				act = append(act, i)
			}
		}
		g := sc.gather[:len(act)]
		for k, i := range act {
			g[k] = sc.states[i].h
		}

		// o_t first (Algorithm 3 lines 4-6), batched: U_o streams once
		// for the whole active set.
		uoB := sc.uoView(len(act))
		kc.PackedGemmRows(uoB, pw.uo, g, nil, 0)
		for k, i := range act {
			row := sc.wx.Row(sc.offs[i] + t)
			xo := row[3*h:]
			uo := uoB.Row(k)
			o := sc.os[i]
			for j := 0; j < h; j++ {
				o[j] = n.Gate.Apply(xo[j] + uo[j] + l.Bo[j])
			}
		}

		// Per-member DRS masks (each member is its own tissue of one,
		// exactly as in the serial sequential flow).
		skips := sc.skips[:len(act)]
		for k, i := range act {
			skips[k] = nil
			if opt.Intra {
				sc.osOne[0] = sc.os[i]
				skips[k], _ = intracell.TissueTrivialRowsInto(sc.masks[i], sc.osOne, opt.AlphaIntra)
			}
		}

		// The united U_{f,i,c} block for the active set under the masks:
		// each weight row streams once and is skipped per member.
		ficB := sc.ficView(len(act))
		kc.PackedGemmRows(ficB, pw.ufic, g, skips, 0)

		// Element-wise state update per member — stepFIC's expressions.
		for k, i := range act {
			st := &sc.states[i]
			row := sc.wx.Row(sc.offs[i] + t)
			xf, xi, xc := row[:h], row[h:2*h], row[2*h:3*h]
			fr := ficB.Row(k)
			uf, ui, uc := fr[:h], fr[h:2*h], fr[2*h:]
			o := sc.os[i]
			skip := skips[k]
			for j := 0; j < h; j++ {
				if skip != nil && skip[j] {
					st.c[j] = 0
					st.h[j] = 0
					continue
				}
				f := n.Gate.Apply(xf[j] + uf[j] + l.Bf[j])
				in := n.Gate.Apply(xi[j] + ui[j] + l.Bi[j])
				cand := tensor.Tanh(xc[j] + uc[j] + l.Bc[j])
				c := f*st.c[j] + in*cand
				st.c[j] = c
				st.h[j] = o[j] * tensor.Tanh(c)
			}
			copy(hs[sc.offs[i]+t], st.h)
		}
	}
	return hs
}
