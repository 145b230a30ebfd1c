package lstm

import (
	"testing"

	"mobilstm/internal/equivtest"
	"mobilstm/internal/rng"
	"mobilstm/internal/tensor"
)

// TestLockstepMatchesTissueReference pins the lockstep body against an
// independent reference: the tissue body run as Inter with AlphaInter 0
// and MTS 1. Relevance is never negative, so no link is cut and every
// cell is its own tissue — the sequential math, through the other body.
// Serial Run is itself a lockstep batch of one, so this (not
// Run≡RunBatch) is what keeps the lockstep body honest.
func TestLockstepMatchesTissueReference(t *testing.T) {
	n := testNet(t, 16, 24, 2, 5, 321)
	r := rng.New(322)
	for _, chain := range []tensor.KernelChain{tensor.ChainSSE2, tensor.ChainAVX2} {
		for _, mode := range []RunOptions{Baseline(), {Intra: true, AlphaIntra: 0.1}} {
			mode.Chain = chain
			ref := mode
			ref.Inter, ref.AlphaInter, ref.MTS, ref.Predictors = true, 0, 1, zeroPredictors(n)
			for _, b := range []int{1, 3, 6} {
				seqs := raggedSeqs(r, 16, 13, b)
				label := chain.String() + " intra=" + map[bool]string{false: "off", true: "on"}[mode.Intra] + " B=" + itoa(b)
				equivtest.Batch(t, label, n.RunBatch(seqs, mode), n.RunBatch(seqs, ref))
			}
		}
	}
}
