package recurrent

import "mobilstm/internal/tensor"

// runScratch is the arena behind one forward pass, lockstep or tissue:
// every buffer a step touches — W·x rows, hidden outputs, states, gates,
// phase-2 operands, DRS masks and the recurrent products — is carved
// out of five slabs (floats, vectors, masks, mask views, ints)
// allocated once per call, sized for the largest shape the call will
// see, and reused across layers and members. Hidden outputs use two
// ping-pong halves because layer k+1 reads layer k's outputs while
// producing its own.
//
// Three capacities size it: batch is the members one kernel call
// serves (the batch in lockstep, one in the tissue body), lanes the
// state and gate slots (one per member in lockstep; one per sub-layer
// and per tissue cell in the tissue body), and total the cells of the
// flat sequence list.
type runScratch struct {
	h int

	wx       []float32       // total × rows(W) united W·x rows
	hsA, hsB []tensor.Vector // ping-pong per-cell hidden outputs
	ping     bool
	u1, u2   []float32 // batch × rows(U1) / rows(U2) recurrent products

	states  []tensor.Vector // per lane, state width
	gates   []tensor.Vector // per lane, gate width
	opBufs  []tensor.Vector // per member, h: phase-2 operand storage
	masks   [][]bool        // per member, h: DRS mask storage
	filters []tensor.Vector // per lane: a tissue's filter-gate views

	// Per-step kernel argument lists over the active members.
	gather   []tensor.Vector
	operands []tensor.Vector
	skips    [][]bool
	active   []int

	lens, offs []int           // member lengths and flat offsets
	subOf      []int           // sub-layer of every cell (tissue body)
	flat       []tensor.Vector // the batch's flat input list
}

// newScratch sizes an arena for c at the given capacities.
func newScratch(c Cell, batch, lanes, total int) *runScratch {
	h := c.Hidden()
	gateW, stateW := c.Widths()
	w, u1, u2 := c.Weights(0)
	sc := &runScratch{h: h}

	floats := make([]float32, total*(w.Rows+2*h)+lanes*(stateW+gateW)+batch*(h+u1.Rows+u2.Rows))
	take := func(n int) []float32 {
		s := floats[:n:n]
		floats = floats[n:]
		return s
	}
	vecs := make([]tensor.Vector, 3*total+3*lanes+3*batch)
	carve := func(n, width int) []tensor.Vector {
		vs := vecs[:n:n]
		vecs = vecs[n:]
		if width > 0 {
			buf := take(n * width)
			for i := range vs {
				vs[i] = buf[i*width : (i+1)*width]
			}
		}
		return vs
	}
	sc.wx = take(total * w.Rows)
	sc.u1 = take(batch * u1.Rows)
	sc.u2 = take(batch * u2.Rows)
	sc.hsA, sc.hsB = carve(total, h), carve(total, h)
	sc.states, sc.gates = carve(lanes, stateW), carve(lanes, gateW)
	sc.opBufs = carve(batch, h)
	sc.filters = carve(lanes, 0)
	sc.gather, sc.operands = carve(batch, 0), carve(batch, 0)
	sc.flat = carve(total, 0)

	maskBuf := make([]bool, batch*h)
	maskViews := make([][]bool, 2*batch)
	sc.masks, sc.skips = maskViews[:batch:batch], maskViews[batch:]
	for i := range sc.masks {
		sc.masks[i] = maskBuf[i*h : (i+1)*h]
	}

	ints := make([]int, 3*batch+total)
	sc.active, sc.lens, sc.offs, sc.subOf = ints[:batch:batch], ints[batch:2*batch:2*batch],
		ints[2*batch:3*batch:3*batch], ints[3*batch:]
	return sc
}

// nextHS flips the ping-pong and returns the hidden-output views for a
// layer of n cells: the previous layer's outputs (this layer's inputs)
// stay valid in the other half.
func (sc *runScratch) nextHS(n int) []tensor.Vector {
	sc.ping = !sc.ping
	if sc.ping {
		return sc.hsA[:n]
	}
	return sc.hsB[:n]
}
