package lstm

import (
	"bytes"
	"testing"

	"mobilstm/internal/equivtest"
	"mobilstm/internal/rng"
	"mobilstm/internal/tensor"
)

// FuzzRunBatchEquivalence drives the batched forward path with
// rng-derived batch shapes and modes: whatever the batch size, length
// raggedness or execution mode, every member must stay bitwise
// identical to its serial run. The seed corpus covers each mode once;
// the fuzzer then explores shape × mode combinations the table tests
// never enumerate.
func FuzzRunBatchEquivalence(f *testing.F) {
	for seed := uint64(0); seed < 4; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		r := rng.New(seed)
		n := testNet(t, 12, 16, 1+r.Intn(2), 4, r.Uint64())
		b := 1 + r.Intn(6)
		seqs := make([][]tensor.Vector, b)
		for i, ln := range equivtest.RaggedLengths(r, b, 9) {
			seqs[i] = testSeqs(r, 12, ln, 1)[0]
		}
		var opt RunOptions
		switch seed % 4 {
		case 1:
			opt = RunOptions{Intra: true, AlphaIntra: 0.02 + 0.2*r.Float64()}
		case 2:
			opt = RunOptions{Inter: true, AlphaInter: 4 * r.Float64(), MTS: 1 + r.Intn(4), Predictors: zeroPredictors(n)}
		case 3:
			opt = RunOptions{
				Inter: true, AlphaInter: 4 * r.Float64(), MTS: 1 + r.Intn(4), Predictors: zeroPredictors(n),
				Intra: true, AlphaIntra: 0.02 + 0.2*r.Float64(),
			}
		}
		got, err := n.RunBatchE(seqs, opt)
		if err != nil {
			t.Fatalf("RunBatchE: %v", err)
		}
		for i, xs := range seqs {
			equivtest.Vectors(t, "member "+itoa(i), got[i], n.Run(xs, opt))
		}
	})
}

// FuzzReadNetwork feeds arbitrary bytes to the deserializer: it must
// reject garbage with an error, never panic or over-allocate.
func FuzzReadNetwork(f *testing.F) {
	// Seed with a valid serialized network and mutations of it.
	n := NewNetwork(3, 4, 1, 2)
	var buf bytes.Buffer
	if _, err := n.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:10])
	f.Add([]byte("garbage"))
	// A bare header claiming hidden=65536 (16 GiB per recurrent matrix):
	// the reader must fail without allocating the claim.
	f.Add(headerOnly(1, 1, 65536, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadNetwork(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything accepted must validate and run.
		if vErr := got.Validate(); vErr != nil {
			t.Fatalf("deserializer accepted invalid network: %v", vErr)
		}
	})
}
