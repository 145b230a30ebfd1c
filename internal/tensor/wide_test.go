package tensor

import (
	"testing"

	"mobilstm/internal/rng"
)

// The wide chain's single-input equivalence contract, stated directly
// on ChainAVX2: every kernel method must be BITWISE identical to
// per-row dotRowWide calls. The per-chain tests in packed_test.go hold
// the same contract for every chain; these pin the wide chain on its
// own shapes and seeds so a wide-only regression names itself.

// wideRef computes dst = m·x per row through dotRowWide — the serial
// reference every wide kernel is held to.
func wideRef(m *Matrix, x Vector) Vector {
	return rowRef(dotRowWide, m, x, nil, 0)
}

func TestWideGemvBitwiseEqualsWideRef(t *testing.T) {
	r := rng.New(0x81)
	for _, sh := range packedShapes {
		m := randMatrix(r, sh.seg*sh.gates, sh.cols)
		x := randVector(r, sh.cols)
		dst := NewVector(m.Rows)
		ChainAVX2.Gemv(dst, m, x)
		want := wideRef(m, x)
		for i := range dst {
			if dst[i] != want[i] {
				t.Fatalf("shape %v row %d: Gemv %v != ref %v", sh, i, dst[i], want[i])
			}
		}
	}
}

func TestWideGemvRowsBitwiseEqualsWideRef(t *testing.T) {
	r := rng.New(0x82)
	for _, sh := range packedShapes {
		m := randMatrix(r, sh.seg*sh.gates, sh.cols)
		x := randVector(r, sh.cols)
		skip := make([]bool, m.Rows)
		for i := range skip {
			skip[i] = r.Bernoulli(0.4)
		}
		const fill = -7.5
		dst := NewVector(m.Rows)
		ChainAVX2.GemvRows(dst, m, x, skip, fill)
		want := wideRef(m, x)
		for i := range dst {
			w := want[i]
			if skip[i] {
				w = fill
			}
			if dst[i] != w {
				t.Fatalf("shape %v row %d: GemvRows %v != %v", sh, i, dst[i], w)
			}
		}
		// nil skip degenerates to Gemv.
		ChainAVX2.GemvRows(dst, m, x, nil, fill)
		for i := range dst {
			if dst[i] != want[i] {
				t.Fatalf("shape %v row %d nil-skip: %v != %v", sh, i, dst[i], want[i])
			}
		}
	}
}

func TestWidePackedGemvBitwiseEqualsWideGemv(t *testing.T) {
	r := rng.New(0x83)
	for _, sh := range packedShapes {
		gates := make([]*Matrix, sh.gates)
		for g := range gates {
			gates[g] = randMatrix(r, sh.seg, sh.cols)
		}
		united := Pack(gates...)
		x := randVector(r, sh.cols)
		dsts := make([]Vector, sh.gates)
		want := make([]Vector, sh.gates)
		for g := range dsts {
			dsts[g] = NewVector(sh.seg)
			want[g] = NewVector(sh.seg)
			ChainAVX2.Gemv(want[g], gates[g], x)
		}
		ChainAVX2.PackedGemv(dsts, united, x)
		for g := range dsts {
			for i := range dsts[g] {
				if dsts[g][i] != want[g][i] {
					t.Fatalf("shape %v gate %d row %d: packed %v != serial %v",
						sh, g, i, dsts[g][i], want[g][i])
				}
			}
		}
	}
}

func TestWidePackedGemvRowsBitwiseEqualsWideGemvRows(t *testing.T) {
	r := rng.New(0x84)
	for _, sh := range packedShapes {
		gates := make([]*Matrix, sh.gates)
		for g := range gates {
			gates[g] = randMatrix(r, sh.seg, sh.cols)
		}
		united := Pack(gates...)
		x := randVector(r, sh.cols)
		skip := make([]bool, sh.seg)
		for i := range skip {
			skip[i] = r.Bernoulli(0.4)
		}
		const fill = 3.25
		dsts := make([]Vector, sh.gates)
		want := make([]Vector, sh.gates)
		for g := range dsts {
			dsts[g] = NewVector(sh.seg)
			want[g] = NewVector(sh.seg)
			ChainAVX2.GemvRows(want[g], gates[g], x, skip, fill)
		}
		ChainAVX2.PackedGemvRows(dsts, united, x, skip, fill)
		for g := range dsts {
			for i := range dsts[g] {
				if dsts[g][i] != want[g][i] {
					t.Fatalf("shape %v gate %d row %d: packed %v != serial %v",
						sh, g, i, dsts[g][i], want[g][i])
				}
			}
		}
	}
}
