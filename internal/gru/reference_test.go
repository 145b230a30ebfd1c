package gru

import (
	"testing"

	"mobilstm/internal/equivtest"
	"mobilstm/internal/tensor"
)

// TestGRULockstepMatchesTissueReference is the GRU twin of the LSTM
// reference test: lockstep RunBatch against the tissue body run as Inter
// with AlphaInter 0 and MTS 1 (no cut links, every cell its own
// tissue), bitwise, on both chains.
func TestGRULockstepMatchesTissueReference(t *testing.T) {
	n := testNet(323, 2, 5)
	for _, chain := range []tensor.KernelChain{tensor.ChainSSE2, tensor.ChainAVX2} {
		for _, mode := range []RunOptions{Baseline(), {Intra: true, AlphaIntra: 0.15}} {
			mode.Chain = chain
			ref := mode
			ref.Inter, ref.AlphaInter, ref.MTS, ref.Predictors = true, 0, 1, zeroPreds(n)
			for bi, b := range []int{1, 3, 6} {
				seqs := raggedSeqsFor(324+uint64(bi), 13, b)
				label := chain.String() + " intra=" + map[bool]string{false: "off", true: "on"}[mode.Intra]
				equivtest.Batch(t, label, n.RunBatch(seqs, mode), n.RunBatch(seqs, ref))
			}
		}
	}
}
