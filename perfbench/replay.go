package main

import (
	"math"
	"runtime"
	"time"

	"mobilstm/internal/core"
	"mobilstm/internal/gpu"
	"mobilstm/internal/intercell"
	"mobilstm/internal/lstm"
	"mobilstm/internal/model"
	"mobilstm/internal/rng"
	"mobilstm/internal/tensor"
)

// perCall returns the median wall time of one fn call: fn is batched so
// each of the samples lasts at least 200µs, which keeps timer resolution
// out of microsecond kernels.
func perCall(samples int, fn func()) time.Duration {
	k := 1
	for {
		t := time.Now()
		for i := 0; i < k; i++ {
			fn()
		}
		if time.Since(t) >= 200*time.Microsecond || k >= 1<<20 {
			break
		}
		k *= 2
	}
	ds := make([]float64, samples)
	for s := range ds {
		t := time.Now()
		for i := 0; i < k; i++ {
			fn()
		}
		ds[s] = float64(time.Since(t)) / float64(k)
	}
	return time.Duration(median(ds))
}

func randVecs(r *rng.RNG, n, dim int) []tensor.Vector {
	out := make([]tensor.Vector, n)
	for i := range out {
		v := tensor.NewVector(dim)
		for j := range v {
			v[j] = r.NormF32(0, 1)
		}
		out[i] = v
	}
	return out
}

// spreadMask marks round(frac*n) of n rows as skipped, evenly spaced.
func spreadMask(n int, frac float64) []bool {
	m := make([]bool, n)
	k := int(math.Round(frac * float64(n)))
	for i := 0; i < k; i++ {
		m[i*n/k] = true
	}
	return m
}

// replayKernels times the public tensor kernels at one LSTM layer's real
// shapes: the hoisted W·x GEMM over gemmRows inputs, the serial U_{f,i,c}
// GEMV under a DRS mask of the measured skip fraction, the U_o GEMV, the
// B-member recurrent GEMM (batch > 0), and the element-wise activations
// at 4h. GB/s figures are bytes computed from the tensor sizes each call
// reads and writes, not measured memory traffic.
func replayKernels(o *outcome, l *lstm.Layer, gemmRows int, skipFrac float64, batch int) {
	const samples = 9
	r := rng.New(0x5eed)
	h, in := l.Hidden, l.Input
	gb := func(bytes int, d time.Duration) float64 { return float64(bytes) / d.Seconds() / 1e9 }

	w := tensor.Pack(l.Wf, l.Wi, l.Wc, l.Wo)
	xs := randVecs(r, gemmRows, in)
	wx := tensor.NewMatrix(gemmRows, 4*h)
	d := perCall(samples, func() { tensor.PackedGemm(wx, w, xs) })
	o.set("tensor.packed_gemm_us", d.Seconds()*1e6, samples)
	o.set("tensor.packed_gemm_gbps", gb(4*(4*h*in+gemmRows*in+gemmRows*4*h), d), samples)

	ufic := tensor.Pack(l.Uf, l.Ui, l.Uc)
	x := randVecs(r, 1, h)[0]
	dsts := []tensor.Vector{tensor.NewVector(h), tensor.NewVector(h), tensor.NewVector(h)}
	skip := spreadMask(h, skipFrac)
	live := 0
	for _, s := range skip {
		if !s {
			live++
		}
	}
	d = perCall(samples, func() { tensor.PackedGemvRows(dsts, ufic, x, skip, 0) })
	o.set("tensor.packed_gemv_rows_us", d.Seconds()*1e6, samples)
	o.set("tensor.packed_gemv_rows_gbps", gb(4*(3*live*h+h+3*h), d), samples)

	uo := tensor.NewVector(h)
	d = perCall(samples, func() { tensor.Gemv(uo, l.Uo, x) })
	o.set("tensor.gemv_uo_us", d.Seconds()*1e6, samples)

	if batch > 0 {
		hs := randVecs(r, batch, h)
		dst := tensor.NewMatrix(batch, 3*h)
		d = perCall(samples, func() { tensor.PackedGemmRows(dst, ufic, hs, nil, 0) })
		o.set("tensor.packed_gemm_rows_us", d.Seconds()*1e6, samples)
		o.set("tensor.packed_gemm_rows_gbps", gb(4*(3*h*h+batch*h+batch*3*h), d), samples)
	}

	act := randVecs(r, 1, 4*h)[0]
	out := tensor.NewVector(4 * h)
	d = perCall(samples, func() { tensor.SigmoidVec(out, act) })
	o.set("tensor.sigmoid_ns", float64(d.Nanoseconds())/float64(4*h), samples)
	d = perCall(samples, func() { tensor.TanhVec(out, act) })
	o.set("tensor.tanh_ns", float64(d.Nanoseconds())/float64(4*h), samples)
}

// replayAnalyzer times Layer.Analyzer(), which the Inter flow rebuilds on
// every run of every layer.
func replayAnalyzer(o *outcome, net *lstm.Network) {
	const samples = 9
	ds := make([]float64, 0, samples*len(net.Layers))
	for _, l := range net.Layers {
		ds = append(ds, perCall(samples, func() { l.Analyzer() }).Seconds()*1e3)
	}
	o.set("intercell.analyzer_ms", median(ds), len(ds))
}

// allocKB is the heap allocated by fn in KiB.
func allocKB(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / 1024
}

// replayAllocs measures the heap a serial Run and a B-member RunBatch
// allocate per sequence.
func replayAllocs(o *outcome, net *lstm.Network, seqs [][]tensor.Vector, opt lstm.RunOptions, batch int) {
	const reps = 5
	serial := make([]float64, reps)
	for i := range serial {
		xs := seqs[i%len(seqs)]
		serial[i] = allocKB(func() { net.Run(xs, opt) })
	}
	o.set("lstm.alloc_kb_per_seq.serial", median(serial), reps)
	members := make([][]tensor.Vector, batch)
	for i := range members {
		members[i] = seqs[i%len(seqs)]
	}
	batched := make([]float64, reps)
	for i := range batched {
		batched[i] = allocKB(func() { net.RunBatch(members, opt) }) / float64(batch)
	}
	o.set("lstm.alloc_kb_per_seq.batch", median(batched), reps)
}

// replayRuns times serial Network.Run per execution mode.
func replayRuns(o *outcome, net *lstm.Network, seqs [][]tensor.Vector, modes []namedOpts) {
	const reps = 7
	for _, m := range modes {
		ds := make([]float64, reps)
		for i := range ds {
			xs := seqs[i%len(seqs)]
			t := time.Now()
			net.Run(xs, m.opt)
			ds[i] = time.Since(t).Seconds() * 1e3
		}
		o.set("lstm.run_ms."+m.name, median(ds), reps)
	}
}

type namedOpts struct {
	name string
	opt  lstm.RunOptions
}

// liveHeapMB is the heap in use after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// traceEngineBuild builds a core.Engine and, when tracing, replays its
// public sub-calls as sibling spans so set-up time splits into model
// build, MTS discovery, predictor collection and calibration. The
// calibration replay is the relevance collection core's calibration
// runs: one traced inter-cell lstm.Network.Run per structural sample,
// at the engine's MTS and predictors.
func traceEngineBuild(o *outcome, rec *recorder, b model.Benchmark, prof model.Profile) (*core.Engine, time.Duration) {
	root := rec.open("bench.engine_build", -1, 0, time.Now())
	// The durations are on the steal-free clock; the spans keep wall time.
	timed := func(name string, fn func()) time.Duration {
		c := stealNow()
		rec.timed(name, root, 0, fn)
		return c.elapsed()
	}
	var e *core.Engine
	total := timed("core.NewEngine", func() { e = core.NewEngine(b, prof, gpu.TegraX1()) })
	if rec == nil {
		return e, total
	}
	var inst *model.Instance
	build := timed("model.Build", func() { inst = model.Build(b, prof) })
	timed("intercell.FindMTS", func() { intercell.FindMTS(gpu.TegraX1(), b.Hidden, 16) })
	pred := timed("lstm.CollectPredictors", func() { lstm.CollectPredictors(inst.Net, inst.PredictorSeqs()) })
	calib := timed("lstm.Run.calibrate", func() {
		for _, xs := range e.Inst.StatSeqs() {
			e.Inst.Net.Run(xs, lstm.RunOptions{Inter: true, MTS: e.MTS, Predictors: e.Predictors, Trace: &lstm.Trace{}})
		}
	})
	rec.close(root, time.Now())
	add := func(name string, d time.Duration) {
		m := o.metrics[name]
		o.set(name, m.Value+d.Seconds(), m.N+1)
	}
	add("model.build_s", build)
	add("lstm.collect_predictors_s", pred)
	add("core.calibrate_s", calib)
	return e, total
}
