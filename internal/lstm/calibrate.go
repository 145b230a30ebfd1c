//lint:file-ignore float64leak calibration is offline weight synthesis: RMS/mean/margin statistics accumulate exactly-widened float32 samples in float64 on purpose, and nothing here feeds a runtime DRS comparison
package lstm

import (
	"math"

	"mobilstm/internal/recurrent"
	"mobilstm/internal/tensor"
)

// Calibrate adjusts a randomly-initialized network the way training would,
// using a handful of representative input sequences:
//
//  1. Pre-activation normalization: each layer's input projections W_g are
//     rescaled so the spread (RMS) of W_g*x over the calibration data hits
//     targetSpread. Trained networks use their activations' sensitive
//     range regardless of the input magnitude of the layer; without this,
//     deep layers (whose inputs are bounded hidden vectors) would see
//     near-zero pre-activations and their context links could never
//     weaken — contradicting the paper's Fig. 15 observation that later
//     layers still divide, just less than earlier ones.
//
//  2. Co-adaptation: the columns of each deep layer's W and of the
//     classification head are scaled in proportion to the mean activity
//     E|h_j| of the feature they consume. Trained networks weight features
//     by usefulness, so features that are almost always ~0 (output gate
//     closed) carry little downstream weight — which is precisely why the
//     paper's DRS can skip their rows with user-imperceptible accuracy
//     loss on real trained models.
//
// The head is finally rescaled so logits have unit-order spread, keeping
// classification margins comparable across benchmarks.
func Calibrate(n *Network, seqs [][]tensor.Vector, spreadFor func(layer int) float64) {
	if len(seqs) == 0 {
		tensor.Panicf("lstm: Calibrate needs at least one sequence")
	}
	cur := seqs
	var act tensor.Vector // per-feature mean |h_j| of the previous layer
	for li, l := range n.Layers {
		if li > 0 {
			scaleColumns(l, act)
		}
		normalizeSpread(l, cur, spreadFor(li))
		cur, act = forwardAll(n, li, cur)
	}
	calibrateHead(n, cur, act)
}

// scaleColumns applies co-adaptation: column j of every W_g is scaled by
// the (mean-normalized) activity of input feature j, floored so no
// feature is cut off entirely.
func scaleColumns(l *Layer, act tensor.Vector) {
	defer l.Invalidate()
	var mean float64
	for _, a := range act {
		mean += float64(a)
	}
	mean /= float64(len(act))
	if mean <= 0 {
		return
	}
	const floor = 0.05
	for _, w := range []*tensor.Matrix{l.Wf, l.Wi, l.Wc, l.Wo} {
		for i := 0; i < w.Rows; i++ {
			row := w.Row(i)
			for j := range row {
				s := float64(act[j]) / mean
				if s < floor {
					s = floor
				}
				row[j] *= float32(s)
			}
		}
	}
}

// normalizeSpread rescales all four W_g so the RMS of the gate
// pre-activations W_g*x over the calibration sequences equals
// targetSpread.
func normalizeSpread(l *Layer, seqs [][]tensor.Vector, targetSpread float64) {
	defer l.Invalidate()
	var sumSq float64
	var count int64
	tmp := tensor.NewVector(l.Hidden)
	for _, xs := range seqs {
		for _, x := range xs {
			for _, w := range []*tensor.Matrix{l.Wf, l.Wi, l.Wc, l.Wo} {
				tensor.Gemv(tmp, w, x)
				for _, v := range tmp {
					sumSq += float64(v) * float64(v)
				}
				count += int64(len(tmp))
			}
		}
	}
	if count == 0 {
		return
	}
	rms := math.Sqrt(sumSq / float64(count))
	if rms == 0 {
		return
	}
	scale := float32(targetSpread / rms)
	for _, w := range []*tensor.Matrix{l.Wf, l.Wi, l.Wc, l.Wo} {
		for i := range w.Data {
			w.Data[i] *= scale
		}
	}
}

// forwardAll runs layer li exactly over every sequence (the shared
// lockstep body, one member at a time), returning the hidden output
// sequences and the per-feature mean |h_j|.
func forwardAll(n *Network, li int, seqs [][]tensor.Vector) ([][]tensor.Vector, tensor.Vector) {
	out := recurrent.LayerOutputs(n.cell(), li, seqs)
	h := n.Layers[li].Hidden
	sumAbs := make([]float64, h)
	var count int64
	for _, hs := range out {
		for _, v := range hs {
			for j, x := range v {
				sumAbs[j] += math.Abs(float64(x))
			}
			count++
		}
	}
	act := tensor.NewVector(h)
	for j := range act {
		act[j] = float32(sumAbs[j] / float64(count))
	}
	return out, act
}

// calibrateHead co-adapts the head columns to final-layer feature
// activity and normalizes the logit spread to unit order.
func calibrateHead(n *Network, seqs [][]tensor.Vector, act tensor.Vector) {
	var mean float64
	for _, a := range act {
		mean += float64(a)
	}
	mean /= float64(len(act))
	if mean > 0 {
		const floor = 0.05
		for i := 0; i < n.Head.Rows; i++ {
			row := n.Head.Row(i)
			for j := range row {
				s := float64(act[j]) / mean
				if s < floor {
					s = floor
				}
				row[j] *= float32(s)
			}
		}
	}
	// Margin normalization on the final hidden states: scale the head so
	// the mean top-2 logit margin hits a class-count-independent target.
	// Trained classifiers produce peaked, confident outputs whatever the
	// vocabulary size; without this, a 50-way head's raw Gaussian logits
	// would have vanishing margins and any approximation would flip
	// labels — matching neither the paper nor real models.
	const targetMargin = 0.8
	var marginSum float64
	var count int64
	logits := tensor.NewVector(n.Head.Rows)
	for _, hs := range seqs {
		if len(hs) == 0 {
			continue
		}
		tensor.Gemv(logits, n.Head, hs[len(hs)-1])
		best := tensor.ArgMax(logits)
		m := math.Inf(1)
		for j, v := range logits {
			if j != best && float64(logits[best]-v) < m {
				m = float64(logits[best] - v)
			}
		}
		if !math.IsInf(m, 1) {
			marginSum += m
			count++
		}
	}
	if count == 0 {
		return
	}
	meanMargin := marginSum / float64(count)
	if meanMargin <= 0 {
		return
	}
	scale := float32(targetMargin / meanMargin)
	for i := range n.Head.Data {
		n.Head.Data[i] *= scale
	}
}
