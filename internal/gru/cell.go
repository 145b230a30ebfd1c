package gru

import (
	"mobilstm/internal/intercell"
	"mobilstm/internal/recurrent"
	"mobilstm/internal/tensor"
)

// cell is the Network as the shared recurrent driver sees it
// (recurrent.Cell), with the §II-B adjustments: the filter gate is the
// update gate z_t, computed with the reset gate r_t from the united
// U_{z,r}; the DRS-skippable phase-2 matrix is U_h over r_t ⊙ h_{t-1};
// and a skipped row carries h_{t-1}[j] instead of zeroing it. The
// state is h.
type cell Network

var _ recurrent.Cell = (*cell)(nil)

func (n *Network) cell() *cell { return (*cell)(n) }

func (n *cell) Kind() string { return "gru" }
func (n *cell) Depth() int   { return len(n.Layers) }
func (n *cell) Input() int   { return n.Layers[0].Input }
func (n *cell) Hidden() int  { return n.Layers[0].Hidden }

func (n *cell) Widths() (gates, state int) {
	h := n.Hidden()
	return 2 * h, h
}

func (n *cell) Classifier() (*tensor.Matrix, tensor.Vector) { return n.Head, n.HeadBias }

// Weights returns the united W_{z,r,h}, the united U_{z,r} and U_h.
func (n *cell) Weights(li int) (w, u1, u2 *tensor.Matrix) {
	l := n.Layers[li]
	pw := l.packedWeights()
	return pw.w, pw.uzr, l.Uh
}

// Filter computes the gates [z | r] from the cell's united W·x row
// [xz|xr|xh] and U_{z,r}·h_{t-1}.
func (n *cell) Filter(li int, zr, wx, uzr tensor.Vector) {
	l := n.Layers[li]
	h := l.Hidden
	z, rv := zr[:h], zr[h:]
	xz, xr := wx[:h], wx[h:2*h]
	uz, ur := uzr[:h], uzr[h:]
	for j := 0; j < h; j++ {
		z[j] = tensor.Sigmoid(xz[j] + uz[j] + l.Bz[j])
		rv[j] = tensor.Sigmoid(xr[j] + ur[j] + l.Br[j])
	}
}

// Operand is r_t ⊙ h_{t-1}, which U_h multiplies.
func (n *cell) Operand(dst, zr, state tensor.Vector) tensor.Vector {
	tensor.Mul(dst, zr[len(state):], state)
	return dst
}

// Update blends the candidate into the carry. Rows marked in skip carry
// h_{t-1}[j] unchanged, since z[j] ~ 0 there.
func (n *cell) Update(li int, state, out, wx, uh, zr tensor.Vector, skip []bool) {
	l := n.Layers[li]
	h := l.Hidden
	xh, z := wx[2*h:], zr[:h]
	for j := 0; j < h; j++ {
		if skip != nil && skip[j] {
			out[j] = state[j]
			continue
		}
		cand := tensor.Tanh(xh[j] + uh[j] + l.Bh[j])
		out[j] = (1-z[j])*state[j] + z[j]*cand
	}
	copy(state, out)
}

// Relevance evaluates the GRU adjustment of Algorithm 2 on every link
// of layer li.
func (n *cell) Relevance(li int, wx *tensor.Matrix, rel []float64) {
	l := n.Layers[li]
	h := l.Hidden
	an := newAnalyzer(l)
	for t := range rel {
		row := wx.Row(t + 1)
		rel[t] = an.relevance(row[:h], row[h:2*h], row[2*h:])
	}
}

// Seed starts a sub-layer from the predicted h link.
func (n *cell) Seed(state tensor.Vector, p intercell.Predictor) {
	copy(state, p.H)
}
