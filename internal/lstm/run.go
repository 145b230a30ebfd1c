package lstm

import (
	"mobilstm/internal/intercell"
	"mobilstm/internal/recurrent"
	"mobilstm/internal/tensor"
)

// RunOptions selects the execution mode and its thresholds (see
// recurrent.RunOptions, which the LSTM and the GRU share).
type RunOptions = recurrent.RunOptions

// Trace records the structural decisions of one optimized run.
type Trace = recurrent.Trace

// LayerTrace is the per-layer record of a Trace.
type LayerTrace = recurrent.LayerTrace

// Baseline returns options for the exact Algorithm 1 flow.
func Baseline() RunOptions { return RunOptions{} }

// Run executes the network on one input sequence and returns the class
// logits. The sequence is the layer input x_1..x_n (each of length
// Input()); every layer consumes the previous layer's hidden outputs.
//
// Run is a batch of one: the non-Inter modes run the shared lockstep
// body with one member, the Inter modes the shared tissue body. Every
// per-cell buffer lives in one scratch arena for the whole call, so the
// hot path performs no per-cell allocation.
func (n *Network) Run(xs []tensor.Vector, opt RunOptions) tensor.Vector {
	return recurrent.Run(n.cell(), xs, opt)
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
func (n *Network) RunE(xs []tensor.Vector, opt RunOptions) (tensor.Vector, error) {
	return recurrent.RunE(n.cell(), xs, opt)
}

// ClassifyE runs the network and returns the argmax class, reporting
// validation failures as errors (the serving-path Classify).
func (n *Network) ClassifyE(xs []tensor.Vector, opt RunOptions) (int, error) {
	return recurrent.ClassifyE(n.cell(), xs, opt)
}

// RunBatch executes the network on a batch of input sequences and
// returns one logits vector per member, bitwise identical to calling
// Run on each member alone. Members may have different (non-zero)
// lengths; the baseline and DRS (Intra) flows run the batch in lockstep
// so the recurrent united weights stream once per timestep for the
// whole batch (the Appleyard-style GEMV→GEMM conversion), while Inter
// batches run member by member over one shared arena, their structure
// being data-dependent. A non-nil opt.Trace rejects the batch.
func (n *Network) RunBatch(seqs [][]tensor.Vector, opt RunOptions) []tensor.Vector {
	return recurrent.RunBatch(n.cell(), seqs, opt)
}

// RunBatchE is the serving-path RunBatch: validation and shape
// violations report as an error instead of a panic.
func (n *Network) RunBatchE(seqs [][]tensor.Vector, opt RunOptions) ([]tensor.Vector, error) {
	return recurrent.RunBatchE(n.cell(), seqs, opt)
}

// ClassifyBatch runs the batch and returns the argmax class per member.
func (n *Network) ClassifyBatch(seqs [][]tensor.Vector, opt RunOptions) []int {
	return recurrent.ClassifyBatch(n.cell(), seqs, opt)
}

// ClassifyBatchE is the error-returning ClassifyBatch (the serving
// loop's batch dispatch entry point).
func (n *Network) ClassifyBatchE(seqs [][]tensor.Vector, opt RunOptions) ([]int, error) {
	return recurrent.ClassifyBatchE(n.cell(), seqs, opt)
}

// CheckSequence validates a caller-supplied input sequence against the
// network's input width without running it: a serving front-end uses it
// to reject one malformed batch member with its own error instead of
// failing the co-batched requests.
func (n *Network) CheckSequence(xs []tensor.Vector) error {
	return recurrent.CheckSequence(n.cell(), xs)
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
	h := n.Hidden()
	recurrent.Observe(n.cell(), samples, func(li int, st tensor.Vector) {
		stats[li].Observe(st[:h], st[h:])
	})
	out := make([]intercell.Predictor, len(n.Layers))
	for i, s := range stats {
		out[i] = s.Predictor()
	}
	return out
}
