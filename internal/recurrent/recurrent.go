// Package recurrent is the one recurrent driver the LSTM and the GRU
// share. The paper's flows are one recurrence run on two schedules:
// cell by cell (Algorithm 1, and Algorithm 3's filter-gate-first DRS)
// or tissue by tissue (§IV). A Cell supplies the per-cell math; this
// package owns everything the two cell types do the same way — the
// options and trace types, validation, one scratch arena, the lockstep
// body behind every non-Inter forward pass and the tissue body behind
// every Inter one.
//
// Each step of either body is the same two-phase recurrence:
//
//  1. phase 1: the recurrent product U1·h_{t-1} (U_o for the LSTM,
//     U_{z,r} for the GRU), then Cell.Filter's gate math, whose first
//     h elements are the DRS filter gate (o_t, z_t);
//  2. the DRS mask — rows where the filter gate is below AlphaIntra for
//     every cell sharing the mask;
//  3. phase 2: the masked product U2·v (U_{f,i,c}·h_{t-1} for the LSTM,
//     U_h·(r_t ⊙ h_{t-1}) for the GRU; Cell.Operand supplies v), then
//     Cell.Update's element-wise state update with its skip rule.
//
// Serial Run is a batch of one: its non-Inter path is the lockstep
// body with one member, whose kernels take tensor's serial one-input
// path — so Run and RunBatch are the same code, not two copies pinned
// to the same bits.
package recurrent

import (
	"fmt"

	"mobilstm/internal/intercell"
	"mobilstm/internal/tensor"
)

// Cell is one recurrent network as the drivers see it: the stacked
// layers' united weights and the per-cell math of its cell type. State
// vectors are laid out [h | rest]: the first h elements are the hidden
// output h_t (the LSTM appends its cell state c_t).
type Cell interface {
	// Kind names the cell type in error messages ("lstm", "gru").
	Kind() string
	// Depth is the number of stacked layers, Input the first layer's
	// input width and Hidden the hidden size h shared by every layer.
	Depth() int
	Input() int
	Hidden() int
	// Widths returns the per-cell gate buffer width (Filter's output,
	// the filter gate first) and the state width.
	Widths() (gates, state int)
	// Weights returns layer li's united matrices: the input projection
	// W, the phase-1 recurrent matrix U1 and the DRS-skippable phase-2
	// matrix U2. U2's rows are tiled by h-long skip masks.
	Weights(li int) (w, u1, u2 *tensor.Matrix)
	// Filter is the phase-1 gate math of one cell of layer li: from the
	// cell's W·x row and its U1·h_{t-1} row it writes gates, whose
	// first h elements are the DRS filter gate.
	Filter(li int, gates, wx, u1 tensor.Vector)
	// Operand returns the phase-2 operand of a cell, given its gates
	// and its state; dst (h long) is storage the cell may use.
	Operand(dst, gates, state tensor.Vector) tensor.Vector
	// Update is the element-wise update of one cell of layer li: from
	// its W·x row, its U2 product row and its gates it advances state
	// in place and writes h_t to out. Rows marked in skip follow the
	// cell type's skip rule instead.
	Update(li int, state, out, wx, u2, gates tensor.Vector, skip []bool)
	// Relevance fills rel[t-1] with the Algorithm 2 value S of the link
	// into cell t of layer li, from the layer's W·x rows.
	Relevance(li int, wx *tensor.Matrix, rel []float64)
	// Seed initializes a later sub-layer's state from layer li's
	// predicted context link.
	Seed(state tensor.Vector, p intercell.Predictor)
	// Classifier returns the linear classification head and its bias.
	Classifier() (*tensor.Matrix, tensor.Vector)
}

// Run executes c on one input sequence and returns freshly allocated
// class logits. It is RunBatch on a batch of one — the same code, the
// same allocations — except that it accepts opt.Trace.
func Run(c Cell, xs []tensor.Vector, opt RunOptions) tensor.Vector {
	if len(xs) == 0 {
		tensor.Panicf("%s: empty input sequence", c.Kind())
	}
	return run(c, [][]tensor.Vector{xs}, opt)[0]
}

// RunBatch executes c on a batch of input sequences and returns one
// logits vector per member, bitwise identical to Run on each member
// alone. Members may have different (non-zero) lengths. A non-nil
// opt.Trace rejects the batch — trace members through Run instead.
func RunBatch(c Cell, seqs [][]tensor.Vector, opt RunOptions) []tensor.Vector {
	checkBatch(c, seqs, opt)
	return run(c, seqs, opt)
}

// RunE is Run behind a tensor.Guard boundary: validation and shape
// violations report as an error instead of a panic.
func RunE(c Cell, xs []tensor.Vector, opt RunOptions) (logits tensor.Vector, err error) {
	defer tensor.Guard(&err)
	return Run(c, xs, opt), nil
}

// ClassifyE is the error-returning argmax of Run.
func ClassifyE(c Cell, xs []tensor.Vector, opt RunOptions) (class int, err error) {
	defer tensor.Guard(&err)
	return tensor.ArgMax(Run(c, xs, opt)), nil
}

// RunBatchE is RunBatch behind a tensor.Guard boundary.
func RunBatchE(c Cell, seqs [][]tensor.Vector, opt RunOptions) (logits []tensor.Vector, err error) {
	defer tensor.Guard(&err)
	return RunBatch(c, seqs, opt), nil
}

// ClassifyBatch runs the batch and returns the argmax class per member.
func ClassifyBatch(c Cell, seqs [][]tensor.Vector, opt RunOptions) []int {
	outs := RunBatch(c, seqs, opt)
	classes := make([]int, len(outs))
	for i, logits := range outs {
		classes[i] = tensor.ArgMax(logits)
	}
	return classes
}

// ClassifyBatchE is the error-returning ClassifyBatch (the serving
// loop's batch dispatch entry point).
func ClassifyBatchE(c Cell, seqs [][]tensor.Vector, opt RunOptions) (classes []int, err error) {
	defer tensor.Guard(&err)
	return ClassifyBatch(c, seqs, opt), nil
}

// CheckSequence validates a caller-supplied input sequence against c's
// input width without running it: a serving front-end uses it to
// reject one malformed batch member with its own error instead of
// failing the co-batched requests.
func CheckSequence(c Cell, xs []tensor.Vector) error {
	if len(xs) == 0 {
		return fmt.Errorf("%s: empty input sequence", c.Kind())
	}
	in := c.Input()
	for t, x := range xs {
		if len(x) != in {
			return fmt.Errorf("%s: sequence element %d has length %d, want input width %d", c.Kind(), t, len(x), in)
		}
	}
	return nil
}

// Observe runs c's exact flow over each sample on the canonical chain
// and calls observe(li, state) after every cell of every layer, in
// (sample, cell) order per layer — the offline link collection behind
// the Eq. 6 predictors. state is arena storage, valid only during the
// call.
func Observe(c Cell, samples [][]tensor.Vector, observe func(li int, state tensor.Vector)) {
	sc := newScratch(c, 1, 1, maxLen(samples))
	for _, xs := range samples {
		lens := [1]int{len(xs)}
		sc.lockstep(c, 0, c.Depth(), xs, lens[:], RunOptions{}, tensor.ChainSSE2, observe)
	}
}

// LayerOutputs runs layer li of c exactly over each sequence on the
// canonical chain and returns every sequence's hidden outputs in fresh
// storage — calibration's per-layer forward, which holds every
// sequence's outputs at once.
func LayerOutputs(c Cell, li int, seqs [][]tensor.Vector) [][]tensor.Vector {
	out := make([][]tensor.Vector, len(seqs))
	h := c.Hidden()
	sc := newScratch(c, 1, 1, maxLen(seqs))
	for si, xs := range seqs {
		lens := [1]int{len(xs)}
		hs := sc.lockstep(c, li, li+1, xs, lens[:], RunOptions{}, tensor.ChainSSE2, nil)
		buf := make([]float32, len(hs)*h)
		own := make([]tensor.Vector, len(hs))
		for t, v := range hs {
			own[t] = buf[t*h : (t+1)*h]
			copy(own[t], v)
		}
		out[si] = own
	}
	return out
}

// run is the one forward pass behind Run and RunBatch: the lockstep
// body over the whole batch, or — Inter's structure being data-dependent
// per member — the tissue body per member over one shared arena. It
// returns fresh logits per member.
func run(c Cell, seqs [][]tensor.Vector, opt RunOptions) []tensor.Vector {
	checkInter(c, opt)
	kc := tensor.ResolveChain(opt.Chain)
	out := make([]tensor.Vector, len(seqs))
	if opt.Inter {
		n := maxLen(seqs)
		sc := newScratch(c, 1, n, n)
		for i, xs := range seqs {
			hs := sc.tissues(c, xs, opt, kc)
			out[i] = headLogits(c, hs[len(hs)-1], kc)
		}
		return out
	}
	total := 0
	for _, xs := range seqs {
		total += len(xs)
	}
	sc := newScratch(c, len(seqs), len(seqs), total)
	// The flat cell list concatenates member sequences in member order;
	// member i's cell t lives at offs[i]+t in every flat slab. A batch
	// of one is its own flat list.
	flat := seqs[0]
	if len(seqs) > 1 {
		flat = sc.flat[:0]
		for _, xs := range seqs {
			flat = append(flat, xs...)
		}
	}
	lens := sc.lens[:len(seqs)]
	for i, xs := range seqs {
		lens[i] = len(xs)
	}
	hs := sc.lockstep(c, 0, c.Depth(), flat, lens, opt, kc, nil)
	off := 0
	for i, n := range lens {
		off += n
		out[i] = headLogits(c, hs[off-1], kc)
	}
	return out
}

// headLogits applies the linear head to a final hidden state, returning
// freshly allocated logits (never an arena view).
func headLogits(c Cell, last tensor.Vector, kc tensor.KernelChain) tensor.Vector {
	head, bias := c.Classifier()
	logits := tensor.NewVector(head.Rows)
	kc.Gemv(logits, head, last)
	tensor.Add(logits, logits, bias)
	return logits
}

// checkInter applies the Inter-mode option checks.
func checkInter(c Cell, opt RunOptions) {
	if !opt.Inter {
		return
	}
	if opt.MTS < 1 {
		tensor.Panicf("%s: Inter mode requires MTS >= 1", c.Kind())
	}
	if len(opt.Predictors) != c.Depth() {
		tensor.Panicf("%s: %d predictors for %d layers", c.Kind(), len(opt.Predictors), c.Depth())
	}
}

// checkBatch applies Run's validation across the batch.
func checkBatch(c Cell, seqs [][]tensor.Vector, opt RunOptions) {
	if len(seqs) == 0 {
		tensor.Panicf("%s: empty batch", c.Kind())
	}
	for i, xs := range seqs {
		if len(xs) == 0 {
			tensor.Panicf("%s: batch member %d is an empty input sequence", c.Kind(), i)
		}
	}
	if opt.Trace != nil {
		tensor.Panicf("%s: Trace is per-sequence; run batch members serially to trace", c.Kind())
	}
}

func maxLen(seqs [][]tensor.Vector) int {
	n := 0
	for _, xs := range seqs {
		if len(xs) > n {
			n = len(xs)
		}
	}
	return n
}
