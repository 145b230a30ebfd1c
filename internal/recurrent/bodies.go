package recurrent

import (
	"mobilstm/internal/intercell"
	"mobilstm/internal/intracell"
	"mobilstm/internal/tensor"
)

// lockstep is the body of every non-Inter forward pass: layers [lo, hi)
// of c over a batch of members whose cells are concatenated in xs
// (member i is lens[i] long), returning the last layer's flat hidden
// outputs (arena views).
//
// Per layer, one united PackedGemm streams W for every cell of every
// member (step 2 of Algorithm 1: all layer inputs are ready up-front).
// Per timestep, the members that still have a cell at t form the active
// set — short members drop out, with no padding compute — and the two
// recurrent products run as batched PackedGemmRows calls, so each
// recurrent weight row streams once for the whole active set. Each
// member is its own tissue of one, so its DRS mask is its own filter
// gate's. With one member (serial Run) every kernel takes tensor's
// serial one-input path.
//
// observe, when non-nil, sees every cell's state right after its
// update. opt.Trace is only honored for one member.
func (sc *runScratch) lockstep(c Cell, lo, hi int, xs []tensor.Vector, lens []int, opt RunOptions, kc tensor.KernelChain, observe func(li int, state tensor.Vector)) []tensor.Vector {
	h := sc.h
	offs := sc.offs[:len(lens)]
	steps, off := 0, 0
	for i, n := range lens {
		offs[i] = off
		off += n
		if n > steps {
			steps = n
		}
	}
	for li := lo; li < hi; li++ {
		w, u1, u2 := c.Weights(li)
		wx := tensor.Matrix{Rows: len(xs), Cols: w.Rows, Data: sc.wx[:len(xs)*w.Rows]}
		kc.PackedGemm(&wx, w, xs)
		lt := opt.Trace.layer(li, len(xs))
		if lt != nil {
			// One sub-layer, every cell its own tissue.
			lt.SublayerSizes = []int{len(xs)}
			lt.TissueSizes = make([]int, len(xs))
			for i := range lt.TissueSizes {
				lt.TissueSizes[i] = 1
			}
		}
		for i := range lens {
			sc.states[i].Fill(0)
		}
		hs := sc.nextHS(len(xs))
		for t := 0; t < steps; t++ {
			act := sc.active[:0]
			for i, n := range lens {
				if t < n {
					act = append(act, i)
				}
			}
			nAct := len(act)
			g := sc.gather[:nAct]
			for k, i := range act {
				g[k] = sc.states[i][:h]
			}

			// Phase 1: U1·h_{t-1} for the active set, then the gate math
			// that yields the filter gate (Algorithm 3 lines 4-6).
			u1B := tensor.Matrix{Rows: nAct, Cols: u1.Rows, Data: sc.u1[:nAct*u1.Rows]}
			kc.PackedGemmRows(&u1B, u1, g, nil, 0)
			ops := sc.operands[:nAct]
			var skips [][]bool
			if opt.Intra {
				skips = sc.skips[:nAct]
			}
			for k, i := range act {
				gates := sc.gates[i]
				c.Filter(li, gates, wx.Row(offs[i]+t), u1B.Row(k))
				if skips != nil {
					sc.filters[0] = gates[:h]
					var n int
					skips[k], n = intracell.TissueTrivialRowsInto(sc.masks[i], sc.filters[:1], opt.AlphaIntra)
					if lt != nil {
						lt.SkipCounts = append(lt.SkipCounts, n)
					}
				}
				ops[k] = c.Operand(sc.opBufs[i], gates, sc.states[i])
			}

			// Phase 2: the masked U2 product, each weight row skipped per
			// member, then the element-wise update.
			u2B := tensor.Matrix{Rows: nAct, Cols: u2.Rows, Data: sc.u2[:nAct*u2.Rows]}
			kc.PackedGemmRows(&u2B, u2, ops, skips, 0)
			for k, i := range act {
				var skip []bool
				if skips != nil {
					skip = skips[k]
				}
				cell := offs[i] + t
				c.Update(li, sc.states[i], hs[cell], wx.Row(cell), u2B.Row(k), sc.gates[i], skip)
				if observe != nil {
					observe(li, sc.states[i])
				}
			}
		}
		xs = hs
	}
	return xs
}

// tissues is the body of every Inter forward pass, over one sequence:
// per layer, relevance → Breakpoints → Sublayers → AlignTissues, the
// predicted initial states (Fig. 10 steps 5-8), then the tissue loop.
// Each tissue runs phase 1 for all of its cells first — the filter
// gates must exist before U2 is touched — then takes one mask shared by
// the whole tissue (a row is skipped only if it is trivial for every
// cell), then runs phase 2 and the update cell by cell. Returns the last
// layer's hidden outputs (arena views).
func (sc *runScratch) tissues(c Cell, xs []tensor.Vector, opt RunOptions, kc tensor.KernelChain) []tensor.Vector {
	h := sc.h
	for li := 0; li < c.Depth(); li++ {
		n := len(xs)
		w, u1, u2 := c.Weights(li)
		wx := tensor.Matrix{Rows: n, Cols: w.Rows, Data: sc.wx[:n*w.Rows]}
		kc.PackedGemm(&wx, w, xs)
		lt := opt.Trace.layer(li, n)

		// Layer division: relevance per link, breakpoints, sub-layers.
		var subs [][]int
		if n > 1 {
			rel := make([]float64, n-1)
			c.Relevance(li, &wx, rel)
			breaks := intercell.Breakpoints(rel, opt.AlphaInter)
			subs = intercell.Sublayers(n, breaks)
			if lt != nil {
				lt.Relevance = rel
				lt.Breakpoints = breaks
			}
		} else {
			subs = intercell.Sublayers(n, nil)
		}
		// Tissue re-organization.
		tissues := intercell.AlignTissues(subs, opt.MTS)
		if lt != nil {
			lt.SublayerSizes = intercell.TissueSizes(subs)
			lt.TissueSizes = intercell.TissueSizes(tissues)
		}

		// Sub-layer lookup and initial states: sub-layer 0 starts from
		// the layer's zero state, every later one from the predicted
		// context link.
		subOf := sc.subOf[:n]
		for si, s := range subs {
			for _, cell := range s {
				subOf[cell] = si
			}
		}
		sc.states[0].Fill(0)
		for si := 1; si < len(subs); si++ {
			c.Seed(sc.states[si], opt.Predictors[li])
		}

		hs := sc.nextHS(n)
		one := sc.gather[:1]
		for _, tissue := range tissues {
			filt := sc.filters[:len(tissue)]
			for ci, cell := range tissue {
				one[0] = sc.states[subOf[cell]][:h]
				u1B := tensor.Matrix{Rows: 1, Cols: u1.Rows, Data: sc.u1[:u1.Rows]}
				kc.PackedGemmRows(&u1B, u1, one, nil, 0)
				c.Filter(li, sc.gates[ci], wx.Row(cell), u1B.Row(0))
				filt[ci] = sc.gates[ci][:h]
			}
			var skip []bool
			var skips [][]bool
			count := 0
			if opt.Intra {
				skip, count = intracell.TissueTrivialRowsInto(sc.masks[0], filt, opt.AlphaIntra)
				skips = sc.skips[:1]
				skips[0] = skip
			}
			if lt != nil {
				lt.SkipCounts = append(lt.SkipCounts, count)
			}
			for ci, cell := range tissue {
				st := sc.states[subOf[cell]]
				one[0] = c.Operand(sc.opBufs[0], sc.gates[ci], st)
				u2B := tensor.Matrix{Rows: 1, Cols: u2.Rows, Data: sc.u2[:u2.Rows]}
				kc.PackedGemmRows(&u2B, u2, one, skips, 0)
				c.Update(li, st, hs[cell], wx.Row(cell), u2B.Row(0), sc.gates[ci], skip)
			}
		}
		xs = hs
	}
	return xs
}
