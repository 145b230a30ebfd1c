package gru

import (
	"sync"
	"sync/atomic"

	"mobilstm/internal/tensor"
)

// packedWeights holds the united row-wise weight views of one GRU layer
// — the §II-B adjustment of the paper's concatenation trick. The input
// projection packs all three gates; the recurrent side packs only U_z
// and U_r, which share the operand h_{t-1}. U_h stays per-gate because
// it multiplies r_t ⊙ h_{t-1}, an operand that exists only after the
// reset gate — and it is also the DRS-skippable block, the phase-2
// matrix of the shared recurrent driver.
type packedWeights struct {
	// w is the united input projection (3h × Input), rows [z|r|h] — the
	// order the wx scratch rows are sliced in.
	w *tensor.Matrix
	// uzr is the united recurrent matrix for the two h_{t-1} gates
	// (2h × Hidden), rows [z|r].
	uzr *tensor.Matrix
}

// packedWeights returns the layer's cached united views, building them
// on first use. Same discipline as the LSTM cache: lock-free reads, a
// mutex-serialized double-checked build.
func (l *Layer) packedWeights() *packedWeights {
	if p := l.packed.Load(); p != nil {
		return p
	}
	l.packedMu.Lock()
	defer l.packedMu.Unlock()
	if p := l.packed.Load(); p != nil {
		return p
	}
	p := &packedWeights{
		w:   tensor.Pack(l.Wz, l.Wr, l.Wh),
		uzr: tensor.Pack(l.Uz, l.Ur),
	}
	l.packed.Store(p)
	return p
}

// Invalidate drops the cached united weight views. Every code path that
// mutates W_g or U_g after construction must call it.
func (l *Layer) Invalidate() { l.packed.Store(nil) }

// packedCache is the cache cell embedded in Layer (see lstm/packed.go:
// nil pointer means "not built", the mutex only guards the build).
type packedCache struct {
	packedMu sync.Mutex
	packed   atomic.Pointer[packedWeights]
}
