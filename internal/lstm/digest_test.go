package lstm

import (
	"hash/fnv"
	"math"
	"testing"

	"mobilstm/internal/rng"
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

// TestOfflineArtifactDigest pins the bits of the two offline artifacts
// the exact flow produces — the Eq. 6 predictors and a calibrated
// network — on a fixed small network with ragged sample lengths. The
// digests were recorded before predictor collection and calibration
// moved onto the shared lockstep body; they must never drift.
func TestOfflineArtifactDigest(t *testing.T) {
	r := rng.New(0xd16e)
	n := testNet(t, 12, 20, 3, 5, 0xd16f)
	var samples [][]tensor.Vector
	for _, ln := range []int{7, 3, 11, 1, 6} {
		samples = append(samples, testSeqs(r, 12, ln, 1)[0])
	}
	var vs []tensor.Vector
	for _, p := range CollectPredictors(n, samples) {
		vs = append(vs, p.H, p.C)
	}
	if got, want := digestVectors(vs...), uint64(0xd58e22dac5824435); got != want {
		t.Errorf("CollectPredictors digest %#x, want %#x", got, want)
	}

	Calibrate(n, samples, func(l int) float64 { return 1.1 + 0.1*float64(l) })
	vs = vs[:0]
	for _, l := range n.Layers {
		for _, m := range []*tensor.Matrix{l.Wf, l.Wi, l.Wc, l.Wo, l.Uf, l.Ui, l.Uc, l.Uo} {
			vs = append(vs, m.Data)
		}
		vs = append(vs, l.Bf, l.Bi, l.Bc, l.Bo)
	}
	vs = append(vs, n.Head.Data, n.HeadBias)
	if got, want := digestVectors(vs...), uint64(0x6c80558713d5f693); got != want {
		t.Errorf("Calibrate digest %#x, want %#x", got, want)
	}
}
