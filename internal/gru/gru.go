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
	"mobilstm/internal/recurrent"
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

// RunOptions selects the execution mode (see recurrent.RunOptions,
// which the GRU shares with the LSTM; only a predictor's H vector is
// used).
type RunOptions = recurrent.RunOptions

// Trace records structural decisions.
type Trace = recurrent.Trace

// LayerTrace is the per-layer record of a Trace.
type LayerTrace = recurrent.LayerTrace

// Baseline returns exact-flow options.
func Baseline() RunOptions { return RunOptions{} }

// Run executes the network on one sequence and returns the logits. Like
// lstm.Run it is a batch of one through the shared recurrent driver,
// which owns one scratch arena for the whole call, so the hot path
// performs no per-cell allocation.
func (n *Network) Run(xs []tensor.Vector, opt RunOptions) tensor.Vector {
	return recurrent.Run(n.cell(), xs, opt)
}

// Classify returns the argmax class.
func (n *Network) Classify(xs []tensor.Vector, opt RunOptions) int {
	return tensor.ArgMax(n.Run(xs, opt))
}

// RunBatch executes the network on a batch of input sequences and
// returns one logits vector per member, bitwise identical to Run on
// each member alone: the baseline and carry-DRS flows run in lockstep
// (U_{z,r}, then U_h under the per-member carry masks, each streaming
// once per timestep for the whole batch), Inter batches member by
// member. A non-nil opt.Trace rejects the batch.
func (n *Network) RunBatch(seqs [][]tensor.Vector, opt RunOptions) []tensor.Vector {
	return recurrent.RunBatch(n.cell(), seqs, opt)
}

// RunBatchE is the error-returning RunBatch (tensor.Guard boundary).
func (n *Network) RunBatchE(seqs [][]tensor.Vector, opt RunOptions) ([]tensor.Vector, error) {
	return recurrent.RunBatchE(n.cell(), seqs, opt)
}

// ClassifyBatch runs the batch and returns the argmax class per member.
func (n *Network) ClassifyBatch(seqs [][]tensor.Vector, opt RunOptions) []int {
	return recurrent.ClassifyBatch(n.cell(), seqs, opt)
}

// ClassifyBatchE is the error-returning ClassifyBatch.
func (n *Network) ClassifyBatchE(seqs [][]tensor.Vector, opt RunOptions) ([]int, error) {
	return recurrent.ClassifyBatchE(n.cell(), seqs, opt)
}

// CollectPredictors runs the exact flow over the sequences and returns
// the Eq. 6 mean-link predictor per layer (GRUs have no cell state, so
// only the H vector is meaningful; C stays zero).
func CollectPredictors(n *Network, samples [][]tensor.Vector) []intercell.Predictor {
	stats := make([]*intercell.LinkStats, len(n.Layers))
	zero := make([]tensor.Vector, len(n.Layers))
	for i, l := range n.Layers {
		stats[i] = intercell.NewLinkStats(l.Hidden)
		zero[i] = tensor.NewVector(l.Hidden)
	}
	recurrent.Observe(n.cell(), samples, func(li int, h tensor.Vector) {
		stats[li].Observe(h, zero[li])
	})
	out := make([]intercell.Predictor, len(n.Layers))
	for i, s := range stats {
		out[i] = s.Predictor()
	}
	return out
}
