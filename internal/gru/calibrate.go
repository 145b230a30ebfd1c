//lint:file-ignore float64leak same rationale as lstm/calibrate.go: offline statistics accumulate exactly-widened float32 samples in float64; no runtime DRS comparison sees these values
package gru

import (
	"math"

	"mobilstm/internal/recurrent"
	"mobilstm/internal/tensor"
)

// Calibrate applies the same pseudo-training adjustments to a GRU that
// lstm.Calibrate applies to an LSTM (see that package for the rationale):
// per-layer pre-activation spread normalization, activity co-adaptation
// of downstream weights, and head margin normalization.
func Calibrate(n *Network, seqs [][]tensor.Vector, spreadFor func(layer int) float64) {
	if len(seqs) == 0 {
		tensor.Panicf("gru: Calibrate needs at least one sequence")
	}
	cur := seqs
	var act tensor.Vector
	for li, l := range n.Layers {
		if li > 0 {
			scaleColumns(l, act)
		}
		normalizeSpread(l, cur, spreadFor(li))
		cur, act = forwardAll(n, li, cur)
	}
	calibrateHead(n, cur, act)
}

func layerWs(l *Layer) []*tensor.Matrix { return []*tensor.Matrix{l.Wz, l.Wr, l.Wh} }

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
	for _, w := range layerWs(l) {
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

func normalizeSpread(l *Layer, seqs [][]tensor.Vector, target float64) {
	defer l.Invalidate()
	var sumSq float64
	var count int64
	tmp := tensor.NewVector(l.Hidden)
	for _, xs := range seqs {
		for _, x := range xs {
			for _, w := range layerWs(l) {
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
	scale := float32(target / rms)
	for _, w := range layerWs(l) {
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
