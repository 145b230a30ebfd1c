package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"time"

	"mobilstm/internal/accuracy"
	"mobilstm/internal/core"
	"mobilstm/internal/experiments"
	"mobilstm/internal/gpu"
	"mobilstm/internal/lstm"
	"mobilstm/internal/model"
	"mobilstm/internal/rng"
	"mobilstm/internal/sched"
	"mobilstm/internal/stats"
)

// sweep: core.NewEngine for MR and PTB, then EvaluateSet over Inter,
// Intra and Combined × threshold sets 1..10 — the paper-reproduction
// path.
//
//   - operation: one (mode, set) operating point, evaluated on every
//     benchmark; the seed orders the 30 operating points, and the timed
//     phase runs as many whole passes over all of them as fit in
//     --seconds (at least one, however short --seconds is), so every
//     run measures the same mix;
//   - latency_tail_ms: p65 of the per-operating-point time (a pass of
//     30 leaves 10 beyond it);
//   - throughput_per_s: (benchmark, mode, set) points evaluated per
//     second;
//   - setup_s: core.NewEngine for both benchmarks.
var (
	sweepBenches = []string{"MR", "PTB"}
	sweepModes   = []sched.Mode{sched.Inter, sched.Intra, sched.Combined}
)

const sweepTailP = 0.65

// sweepGolden maps "bench/mode/set" to the fingerprint of its outcome,
// recorded on the parent commit with --record-golden.
//
//go:embed sweep_golden.json
var sweepGolden []byte

type point struct {
	bench int
	mode  sched.Mode
	set   int
}

func (p point) key(benches []string) string {
	return fmt.Sprintf("%s/%s/%d", benches[p.bench], p.mode, p.set)
}

func sweepPoints(nBench int) []point {
	var ps []point
	for b := 0; b < nBench; b++ {
		for _, m := range sweepModes {
			for set := 1; set < core.ThresholdSets; set++ {
				ps = append(ps, point{b, m, set})
			}
		}
	}
	return ps
}

// fingerprint hashes the bits of the outcome's accuracy, simulated
// cycles and DRAM bytes.
func fingerprint(out *core.Outcome) string {
	h := fnv.New64a()
	for _, v := range []float64{out.Accuracy, out.Result.Cycles, out.Result.DRAMBytes} {
		var b [8]byte
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func sweepEngines(o *outcome, rec *recorder, benches []string, reps int) ([]*core.Engine, error) {
	prof := model.Default()
	mbs := make([]model.Benchmark, len(benches))
	for i, b := range benches {
		mb, err := experiments.Lookup(b)
		if err != nil {
			return nil, err
		}
		mbs[i] = mb
	}
	var engs []*core.Engine
	setups := make([]float64, reps)
	for r := range setups {
		engs = make([]*core.Engine, len(mbs))
		for i, mb := range mbs {
			var d time.Duration
			engs[i], d = traceEngineBuild(o, rec, mb, prof)
			setups[r] += d.Seconds()
		}
	}
	o.set("setup_s", median(setups), reps)
	return engs, nil
}

// sweepPass evaluates every point once, in order.
type sweepPass struct {
	lat  []float64 // ms, per operating point (perOp consecutive points)
	outs []*core.Outcome
	errs int
}

func runSweepPasses(engs []*core.Engine, order []point, perOp int, seconds float64, rec *recorder, layer *sweepLayers) ([]sweepPass, time.Duration) {
	start := stealNow()
	var passes []sweepPass
	var last time.Duration
	// Another pass starts only if one as long as the last fits in the
	// remaining time, so every run measures whole passes.
	for len(passes) == 0 || (time.Since(start.wall)+last).Seconds() <= seconds {
		passStart := time.Now()
		var p sweepPass
		var opMs float64
		for i, pt := range order {
			e := engs[pt.bench]
			root := rec.open("bench.point", -1, int64(i), time.Now())
			var out *core.Outcome
			var err error
			c := stealNow()
			d := rec.timed("core.EvaluateSet", root, int64(i), func() { out, err = e.EvaluateSetE(pt.mode, pt.set) })
			busy := c.elapsed()
			if layer != nil {
				layer.replay(rec, root, int64(i), e, pt, d)
			}
			rec.close(root, time.Now())
			p.outs = append(p.outs, out)
			if opMs += busy.Seconds() * 1e3; (i+1)%perOp == 0 {
				p.lat = append(p.lat, opMs)
				opMs = 0
			}
			if err != nil {
				p.errs++
			}
		}
		passes = append(passes, p)
		last = time.Since(passStart)
	}
	return passes, start.elapsed()
}

func sweepEndToEnd(o *outcome, passes []sweepPass, wall time.Duration) {
	var lat []float64
	errs, points := 0, 0
	for _, p := range passes {
		lat = append(lat, p.lat...)
		errs += p.errs
		points += len(p.outs)
	}
	o.set("latency_p50_ms", quantile(lat, 0.5), len(lat))
	o.set("latency_tail_ms", quantile(lat, sweepTailP), len(lat))
	o.set("throughput_per_s", float64(points)/wall.Seconds(), points)
	o.set("ok_share", float64(points-errs)/float64(max(1, points)), points)
}

func runSweep(cfg runCfg) (*outcome, error) {
	o := newOutcome()
	benches, reps := sweepBenches, setupReps
	if cfg.smoke {
		benches, reps = sweepBenches[:1], 1
	}
	var rec *recorder
	if cfg.trace {
		rec, reps = newRecorder(), 1
	}
	engs, err := sweepEngines(o, rec, benches, reps)
	if err != nil {
		return nil, err
	}
	// The seed orders the operating points; each runs on every benchmark.
	sets := core.ThresholdSets - 1
	var order []point
	for _, j := range rng.New(cfg.seed).Perm(len(sweepModes) * sets) {
		for b := range benches {
			order = append(order, point{b, sweepModes[j/sets], 1 + j%sets})
		}
	}
	if cfg.smoke {
		order = order[:3*len(benches)]
	}

	timed := stealNow()
	passes, wall := runSweepPasses(engs, order, len(benches), cfg.seconds, nil, nil)
	o.set("bench.steal_share", timed.stolen(), 1)
	sweepEndToEnd(o, passes, wall)
	o.set("live_heap_mb", liveHeapMB(), 1)

	if cfg.trace {
		layer := &sweepLayers{}
		tp, tw := runSweepPasses(engs, order, len(benches), 0, rec, layer)
		traced := newOutcome()
		sweepEndToEnd(traced, tp, tw)
		p50 := o.metrics["latency_p50_ms"].Value
		o.set("trace.overhead_share", (traced.metrics["latency_p50_ms"].Value-p50)/p50, len(tp[0].lat))
		passes = append(passes, tp...)
		layer.report(o, engs[len(engs)-1])
		o.spans = rec.closed()
		o.spanStats = selfTimes(o.spans)
	}

	for _, p := range passes {
		o.attempted += len(p.outs)
		o.failed += p.errs
	}
	checkSweep(o, benches, order, passes)
	return o, nil
}

// checkSweep compares every outcome's fingerprint with the recorded one.
func checkSweep(o *outcome, benches []string, order []point, passes []sweepPass) {
	var golden map[string]string
	if err := json.Unmarshal(sweepGolden, &golden); err != nil {
		o.check("sweep.fingerprints", false, "recorded fingerprints unreadable: %v", err)
		return
	}
	bad, n := 0, 0
	first := ""
	for _, p := range passes {
		for i, out := range p.outs {
			n++
			k := order[i].key(benches)
			if out == nil || golden[k] != fingerprint(out) {
				bad++
				if first == "" {
					first = k
				}
			}
		}
	}
	o.check("sweep.fingerprints", bad == 0 && n > 0, "%d of %d outcomes differ from the recorded fingerprint (first: %q)", bad, n, first)
}

// recordGolden evaluates every sweep point and writes the fingerprints.
func recordGolden(path string) error {
	o := newOutcome()
	engs, err := sweepEngines(o, nil, sweepBenches, 1)
	if err != nil {
		return err
	}
	golden := make(map[string]string)
	for _, pt := range sweepPoints(len(sweepBenches)) {
		out, err := engs[pt.bench].EvaluateSetE(pt.mode, pt.set)
		if err != nil {
			return err
		}
		golden[pt.key(sweepBenches)] = fingerprint(out)
	}
	b, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// sweepLayers accumulates the traced pass's per-layer numbers: each
// point's EvaluateSet is followed by replays of its public sub-calls,
// recorded as siblings under the point's root span.
type sweepLayers struct {
	evalMs              map[sched.Mode][]float64
	structure, score    []float64
	kernelsMs, simMs    []float64
	replayed, evaluated float64 // ms: replayed sub-calls vs EvaluateSet
	kernels, points     int
	skipped, units      int // DRS skip counts over traced runs
	tissues, interLays  int
	analyzerCalls, runs int
	hidden              int
}

func (sl *sweepLayers) replay(rec *recorder, root int32, id int64, e *core.Engine, pt point, eval time.Duration) {
	if sl.evalMs == nil {
		sl.evalMs = make(map[sched.Mode][]float64)
	}
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
	sl.evalMs[pt.mode] = append(sl.evalMs[pt.mode], ms(eval))

	var ai, aa float64
	dt := rec.timed("core.Thresholds", root, id, func() { ai, aa = e.Thresholds(pt.set) })
	var stats []sched.LayerStats
	ds := rec.timed("core.Structure", root, id, func() { stats = e.Structure(pt.mode, ai, aa) })
	seqs, refs := e.Inst.AccSeqs()
	opt := e.RunOptionsFor(pt.mode, pt.set)
	dsc := rec.timed("accuracy.Score", root, id, func() { accuracy.Score(e.Inst.Net, seqs, refs, opt) })
	plan := sched.Plan{Cfg: e.Cfg, Mode: pt.mode, Hidden: e.B.Hidden, Input: e.B.Hidden,
		Length: e.B.Length, Layers: e.B.Layers, MTS: e.MTS, Stats: stats, Seed: e.B.Seed ^ 0xfeed}
	replicas := 1
	if pt.mode == sched.Inter || pt.mode == sched.Combined {
		replicas = 5 // core simulates the synthesized tissue layouts five times
	}
	var dk, dsim time.Duration
	sim := gpu.NewSimulator(e.Cfg)
	for i := 0; i < replicas; i++ {
		p := plan
		p.Seed += uint64(i) * 0x9e37
		var ks []gpu.KernelSpec
		dk += rec.timed("sched.Kernels", root, id, func() { ks = sched.Kernels(p) })
		dsim += rec.timed("gpu.Simulator.Run", root, id, func() { sim.Run(ks) })
		if i == 0 {
			sl.kernels += len(ks)
		}
	}
	sl.points++
	sl.structure = append(sl.structure, ms(ds))
	sl.score = append(sl.score, ms(dsc))
	sl.kernelsMs = append(sl.kernelsMs, ms(dk))
	sl.simMs = append(sl.simMs, ms(dsim))
	sl.evaluated += ms(eval)
	sl.replayed += ms(dt + ds + dsc + dk + dsim)

	// One traced serial Run gives the structural counts.
	tr := &lstm.Trace{}
	to := opt
	to.Trace = tr
	rec.timed("lstm.Run", root, id, func() { e.Inst.Net.Run(e.Inst.StatSeqs()[0], to) })
	sl.runs++
	sl.hidden = e.Inst.Hidden
	for _, lt := range tr.Layers {
		// Inter-only tissues carry zero skip counts; only DRS runs
		// define a skip fraction.
		if opt.Intra {
			for _, c := range lt.SkipCounts {
				sl.skipped += c
				sl.units++
			}
		}
		if lt.Relevance != nil {
			sl.analyzerCalls++
		}
		if opt.Inter {
			sl.tissues += len(lt.TissueSizes)
			sl.interLays++
		}
	}
}

func (sl *sweepLayers) report(o *outcome, main *core.Engine) {
	for _, m := range []struct {
		mode sched.Mode
		name string
	}{{sched.Inter, "inter"}, {sched.Intra, "intra"}, {sched.Combined, "combined"}} {
		o.set("core.evaluate_ms."+m.name, stats.Mean(sl.evalMs[m.mode]), len(sl.evalMs[m.mode]))
	}
	o.set("core.structure_ms", stats.Mean(sl.structure), sl.points)
	o.set("accuracy.score_ms", stats.Mean(sl.score), sl.points)
	o.set("sched.kernels_ms", stats.Mean(sl.kernelsMs), sl.points)
	o.set("gpu.sim_ms", stats.Mean(sl.simMs), sl.points)
	o.set("gpu.kernels_per_point", float64(sl.kernels)/float64(max(1, sl.points)), sl.points)
	skip := 0.0
	if sl.units > 0 {
		skip = float64(sl.skipped) / float64(sl.units*sl.hidden)
	}
	o.set("intracell.skip_frac", skip, sl.units)
	o.set("intercell.tissues_per_layer", float64(sl.tissues)/float64(max(1, sl.interLays)), sl.interLays)
	o.set("intercell.analyzer_calls_per_run", float64(sl.analyzerCalls)/float64(max(1, sl.runs)), sl.runs)
	o.set("trace.unaccounted_share", (sl.evaluated-sl.replayed)/sl.evaluated, sl.points)

	// Replays on the largest benchmark's network at its real shapes.
	net := main.Inst.Net
	seqs := main.Inst.StatSeqs()
	const midSet = 5
	replayRuns(o, net, seqs, []namedOpts{
		{"baseline", lstm.Baseline()},
		{"inter", main.RunOptionsFor(sched.Inter, midSet)},
		{"intra", main.RunOptionsFor(sched.Intra, midSet)},
		{"combined", main.RunOptionsFor(sched.Combined, midSet)},
	})
	replayAnalyzer(o, net)
	replayKernels(o, net.Layers[0], main.Inst.Length, skip, 0)
	replayAllocs(o, net, seqs, lstm.Baseline(), len(seqs))
}
