package gru

import (
	"hash/fnv"
	"math"
	"testing"

	"mobilstm/internal/tensor"
)

// digestVectors folds the float32 bits of vs into one FNV-64a digest.
func digestVectors(vs ...tensor.Vector) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range vs {
		for _, x := range v {
			u := math.Float32bits(x)
			b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestGRUOfflineArtifactDigest pins the bits of the GRU's offline
// artifacts — the Eq. 6 predictors and a calibrated network — on a
// fixed small network with ragged sample lengths. The digests were
// recorded before predictor collection and calibration moved onto the
// shared lockstep body; they must never drift.
func TestGRUOfflineArtifactDigest(t *testing.T) {
	n := testNet(0xd170, 3, 5)
	var samples [][]tensor.Vector
	for i, ln := range []int{7, 3, 11, 1, 6} {
		samples = append(samples, seqsFor(0xd171+uint64(i), ln, 1)[0])
	}
	var vs []tensor.Vector
	for _, p := range CollectPredictors(n, samples) {
		vs = append(vs, p.H, p.C)
	}
	if got, want := digestVectors(vs...), uint64(0xa44dde52ab16c56c); got != want {
		t.Errorf("CollectPredictors digest %#x, want %#x", got, want)
	}

	Calibrate(n, samples, func(l int) float64 { return 1.1 + 0.1*float64(l) })
	vs = vs[:0]
	for _, l := range n.Layers {
		for _, m := range []*tensor.Matrix{l.Wz, l.Wr, l.Wh, l.Uz, l.Ur, l.Uh} {
			vs = append(vs, m.Data)
		}
		vs = append(vs, l.Bz, l.Br, l.Bh)
	}
	vs = append(vs, n.Head.Data, n.HeadBias)
	if got, want := digestVectors(vs...), uint64(0x386130337dd1be25); got != want {
		t.Errorf("Calibrate digest %#x, want %#x", got, want)
	}
}
