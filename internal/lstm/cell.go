package lstm

import (
	"mobilstm/internal/intercell"
	"mobilstm/internal/recurrent"
	"mobilstm/internal/tensor"
)

// cell is the Network as the shared recurrent driver sees it
// (recurrent.Cell): Eqs. 1-5 split into Algorithm 3's two phases. The
// filter gate is o_t, computed first from U_o; the DRS-skippable phase-2
// block is U_{f,i,c} over h_{t-1}, and a skipped row zeroes both c_t[j]
// and h_t[j] (§V-A). The state is [h | c].
type cell Network

var _ recurrent.Cell = (*cell)(nil)

func (n *Network) cell() *cell { return (*cell)(n) }

func (n *cell) Kind() string { return "lstm" }
func (n *cell) Depth() int   { return len(n.Layers) }
func (n *cell) Input() int   { return n.Layers[0].Input }
func (n *cell) Hidden() int  { return n.Layers[0].Hidden }

func (n *cell) Widths() (gates, state int) {
	h := n.Hidden()
	return h, 2 * h
}

func (n *cell) Classifier() (*tensor.Matrix, tensor.Vector) { return n.Head, n.HeadBias }

// Weights returns the united W_{f,i,c,o} and the U_o and U_{f,i,c} row
// blocks of the united recurrent matrix.
func (n *cell) Weights(li int) (w, u1, u2 *tensor.Matrix) {
	pw := n.Layers[li].packedWeights()
	return pw.w, pw.uo, pw.ufic
}

// Filter computes the output gate o_t from the cell's united W·x row
// [xf|xi|xc|xo] and U_o·h_{t-1} (Algorithm 3 lines 4-6).
func (n *cell) Filter(li int, o, wx, uo tensor.Vector) {
	l := n.Layers[li]
	h := l.Hidden
	xo := wx[3*h:]
	for j := 0; j < h; j++ {
		o[j] = n.Gate.Apply(xo[j] + uo[j] + l.Bo[j])
	}
}

// Operand is h_{t-1}: U_{f,i,c} multiplies the previous hidden output.
func (n *cell) Operand(_, _, state tensor.Vector) tensor.Vector {
	return state[:n.Hidden()]
}

// Update computes f_t, i_t and the candidate from the united U_{f,i,c}
// row and updates (c, h) in place. Rows marked in skip are not computed;
// their c and h elements are approximated to zero (§V-A).
func (n *cell) Update(li int, state, out, wx, fic, o tensor.Vector, skip []bool) {
	l := n.Layers[li]
	h := l.Hidden
	hs, cs := state[:h], state[h:]
	xf, xi, xc := wx[:h], wx[h:2*h], wx[2*h:3*h]
	uf, ui, uc := fic[:h], fic[h:2*h], fic[2*h:]
	for j := 0; j < h; j++ {
		if skip != nil && skip[j] {
			cs[j] = 0
			hs[j] = 0
			continue
		}
		f := n.Gate.Apply(xf[j] + uf[j] + l.Bf[j])
		i := n.Gate.Apply(xi[j] + ui[j] + l.Bi[j])
		g := tensor.Tanh(xc[j] + uc[j] + l.Bc[j])
		c := f*cs[j] + i*g
		cs[j] = c
		hs[j] = o[j] * tensor.Tanh(c)
	}
	copy(out, hs)
}

// Relevance evaluates Algorithm 2 on every link of layer li.
func (n *cell) Relevance(li int, wx *tensor.Matrix, rel []float64) {
	l := n.Layers[li]
	h := l.Hidden
	an := l.Analyzer()
	for t := range rel {
		row := wx.Row(t + 1)
		rel[t] = an.Relevance(row[:h], row[h:2*h], row[2*h:3*h], row[3*h:])
	}
}

// Seed starts a sub-layer from the predicted (h, c) link.
func (n *cell) Seed(state tensor.Vector, p intercell.Predictor) {
	h := n.Hidden()
	copy(state[:h], p.H)
	copy(state[h:], p.C)
}
