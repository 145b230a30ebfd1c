package main

import (
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"mobilstm/internal/equivtest"
	"mobilstm/internal/experiments"
	"mobilstm/internal/gru"
	"mobilstm/internal/lstm"
	"mobilstm/internal/model"
	"mobilstm/internal/rng"
	"mobilstm/internal/stats"
	"mobilstm/internal/tensor"
	"mobilstm/internal/thresholds"
)

// offline-batch: ClassifyBatch at B=16 over seed-generated sequences, on
// a quick-profile PTB-shaped LSTM in baseline and intra modes and on a
// GRU at the BenchmarkRunGRU shape — the lockstep PackedGemmRows path.
//
//   - operation: one B=16 ClassifyBatch call; the timed phase cycles
//     LSTM baseline, LSTM intra and GRU batches, so every run measures
//     the same mix;
//   - latency_tail_ms: p80 of the per-batch time;
//   - throughput_per_s: sequences classified per second;
//   - setup_s: building the two networks.
const (
	offlineBatch = 16
	offlinePool  = 64
	offlineTailP = 0.8
	gruHidden    = 128
	gruLength    = 60
	gruLayers    = 2
	gruClasses   = 8
	// offlineMTS is the tissue bound of the replayed inter-cell modes, in
	// the quick-profile MTS neighborhood as in the hot-path benchmarks.
	offlineMTS = 5
	// offlineSet is the point of the §VI-C threshold walk the intra
	// batches run at: mid-sweep.
	offlineSet = 5
)

// offlineAlphaIntra is the DRS threshold of threshold set offlineSet.
var offlineAlphaIntra = thresholds.AlphaIntraMax * offlineSet / (thresholds.Sets - 1)

type offlineNets struct {
	lstm   *lstm.Network
	gru    *gru.Network
	length int
}

// buildOfflineNets makes the PTB-shaped LSTM (hidden and length capped
// by the quick profile, PTB's generator knobs) and the GRU.
func buildOfflineNets() (offlineNets, error) {
	b, err := experiments.Lookup("PTB")
	if err != nil {
		return offlineNets{}, err
	}
	prof := model.Default()
	h, length := b.Hidden, b.Length
	if prof.HiddenCap > 0 {
		h = min(h, prof.HiddenCap)
	}
	if prof.LengthCap > 0 {
		length = min(length, prof.LengthCap)
	}
	r := rng.New(b.Seed)
	ln := lstm.NewNetwork(h, h, b.Layers, b.Classes)
	ln.InitRandom(r.Split(), func(layer int) float64 { return b.LinkBase + float64(layer)*b.LinkStep }, b.TrivialFrac)
	gn := gru.NewNetwork(gruHidden, gruHidden, gruLayers, gruClasses)
	gn.InitRandom(rng.New(0xbeef).Split(), nil, 0.5)
	return offlineNets{lstm: ln, gru: gn, length: length}, nil
}

// offlineKind is one of the three batch kinds the timed phase cycles.
type offlineKind struct {
	name string
	gru  bool
	opt  lstm.RunOptions
}

var offlineKinds = []offlineKind{
	{name: "lstm.baseline", opt: lstm.Baseline()},
	{name: "lstm.intra", opt: lstm.RunOptions{Intra: true, AlphaIntra: offlineAlphaIntra}},
	{name: "gru.baseline", gru: true},
}

// offlineBatchRec is one timed ClassifyBatch call.
type offlineBatchRec struct {
	kind    int
	members []int // pool indices
	classes []int
	ms      float64
}

func runOfflineBatches(nets offlineNets, lpool, gpool [][]tensor.Vector, seconds float64, limit int, rec *recorder) ([]offlineBatchRec, time.Duration) {
	var out []offlineBatchRec
	next := 0
	start := stealNow()
	for i := 0; (limit == 0 && time.Since(start.wall).Seconds() < seconds) || (limit > 0 && i < limit); i++ {
		k := i % len(offlineKinds)
		br := offlineBatchRec{kind: k, members: make([]int, offlineBatch)}
		seqs := make([][]tensor.Vector, offlineBatch)
		for m := range seqs {
			br.members[m] = next % offlinePool
			next++
			if offlineKinds[k].gru {
				seqs[m] = gpool[br.members[m]]
			} else {
				seqs[m] = lpool[br.members[m]]
			}
		}
		root := rec.open("bench.batch", -1, int64(i), time.Now())
		c := stealNow()
		if offlineKinds[k].gru {
			rec.timed("gru.ClassifyBatch", root, int64(i), func() { br.classes = nets.gru.ClassifyBatch(seqs, gru.Baseline()) })
		} else {
			rec.timed("lstm.ClassifyBatch", root, int64(i), func() { br.classes = nets.lstm.ClassifyBatch(seqs, offlineKinds[k].opt) })
		}
		br.ms = c.elapsed().Seconds() * 1e3
		rec.close(root, time.Now())
		out = append(out, br)
	}
	return out, start.elapsed()
}

func offlineEndToEnd(o *outcome, recs []offlineBatchRec, wall time.Duration) {
	lat := make([]float64, len(recs))
	for i, r := range recs {
		lat[i] = r.ms
	}
	o.set("latency_p50_ms", quantile(lat, 0.5), len(lat))
	o.set("latency_tail_ms", quantile(lat, offlineTailP), len(lat))
	o.set("throughput_per_s", float64(len(recs)*offlineBatch)/wall.Seconds(), len(recs)*offlineBatch)
	o.set("ok_share", 1, len(recs))
}

func runOffline(cfg runCfg) (*outcome, error) {
	o := newOutcome()
	// Building both networks takes tens of milliseconds, so setup_s is
	// the median of many builds; each starts on a collected heap, as in
	// a fresh process, so no earlier build's garbage is charged to it.
	reps := 15
	if cfg.smoke || cfg.trace {
		reps = 1
	}
	var nets offlineNets
	setups := make([]float64, reps)
	for i := range setups {
		runtime.GC()
		c := stealNow()
		var err error
		if nets, err = buildOfflineNets(); err != nil {
			return nil, err
		}
		setups[i] = c.elapsed().Seconds()
	}
	o.set("setup_s", median(setups), reps)

	r := rng.New(cfg.seed)
	lpool := make([][]tensor.Vector, offlinePool)
	gpool := make([][]tensor.Vector, offlinePool)
	lr, gr := r.Split(), r.Split()
	for i := range lpool {
		lpool[i] = randVecs(lr, nets.length, nets.lstm.Input())
		gpool[i] = randVecs(gr, gruLength, gruHidden)
	}
	limit := 0
	if cfg.smoke {
		limit = len(offlineKinds)
	}

	timed := stealNow()
	recs, wall := runOfflineBatches(nets, lpool, gpool, cfg.seconds, limit, nil)
	o.set("bench.steal_share", timed.stolen(), 1)
	offlineEndToEnd(o, recs, wall)
	o.set("live_heap_mb", liveHeapMB(), 1)
	all := recs

	if cfg.trace {
		rec := newRecorder()
		tr, tw := runOfflineBatches(nets, lpool, gpool, cfg.seconds, limit, rec)
		traced := newOutcome()
		offlineEndToEnd(traced, tr, tw)
		p50 := o.metrics["latency_p50_ms"].Value
		o.set("trace.overhead_share", (traced.metrics["latency_p50_ms"].Value-p50)/p50, len(tr))
		offlineLayers(o, nets, tr, lpool)
		o.spans = rec.closed()
		o.spanStats = selfTimes(o.spans)
		o.set("trace.unaccounted_share", unaccountedShare(o.spanStats, "bench.batch"), len(tr))
		all = append(all, tr...)
	}

	o.attempted = len(all) * offlineBatch
	checkOffline(o, offlineSamples(nets, all, lpool, gpool, cfg.seed))
	return o, nil
}

func offlineLayers(o *outcome, nets offlineNets, recs []offlineBatchRec, lpool [][]tensor.Vector) {
	byKind := make([][]float64, len(offlineKinds))
	for _, r := range recs {
		byKind[r.kind] = append(byKind[r.kind], r.ms)
	}
	o.set("lstm.run_batch_ms.baseline", median(byKind[0]), len(byKind[0]))
	o.set("lstm.run_batch_ms.intra", median(byKind[1]), len(byKind[1]))
	o.set("gru.run_batch_ms", median(byKind[2]), len(byKind[2]))

	net := nets.lstm
	pred := lstm.CollectPredictors(net, lpool[:2])
	// The relevance threshold is calibrated like the engine's: a quantile
	// of the relevance an undivided inter-cell run observes.
	tr := &lstm.Trace{}
	net.Run(lpool[0], lstm.RunOptions{Inter: true, MTS: offlineMTS, Predictors: pred, Trace: tr})
	var rels []float64
	for _, lt := range tr.Layers {
		rels = append(rels, lt.Relevance...)
	}
	sort.Float64s(rels)
	inter := lstm.RunOptions{Inter: true, AlphaInter: stats.Quantile(rels, thresholds.CalibInterQuantile),
		MTS: offlineMTS, Predictors: pred}
	comb := inter
	comb.Intra, comb.AlphaIntra = true, offlineAlphaIntra
	replayRuns(o, net, lpool, []namedOpts{
		{"baseline", lstm.Baseline()}, {"inter", inter}, {"intra", offlineKinds[1].opt}, {"combined", comb},
	})
	replayAnalyzer(o, net)
	// The batched flows never build an analyzer.
	o.set("intercell.analyzer_calls_per_run", 0, len(recs))
	replayAllocs(o, net, lpool, lstm.Baseline(), offlineBatch)

	tr = &lstm.Trace{}
	net.Run(lpool[0], lstm.RunOptions{Intra: true, AlphaIntra: offlineAlphaIntra, Trace: tr})
	replayKernels(o, net.Layers[0], offlineBatch*nets.length, traceSkipFrac(tr, net.Hidden()), offlineBatch)
}

// offlineSample is one checked batch: the classes the timed call
// returned, and the logits of the same members batched and serial.
type offlineSample struct {
	label   string
	classes []int
	batch   []tensor.Vector
	serial  []tensor.Vector
}

// offlineSamples re-runs the first batch of every kind and one batch
// picked by the seed, outside the timed phase.
func offlineSamples(nets offlineNets, recs []offlineBatchRec, lpool, gpool [][]tensor.Vector, seed uint64) []offlineSample {
	pick := map[int]bool{}
	seen := map[int]bool{}
	for i, r := range recs {
		if !seen[r.kind] {
			seen[r.kind] = true
			pick[i] = true
		}
	}
	pick[rng.New(seed^0x0ff1).Intn(len(recs))] = true
	var out []offlineSample
	for i, r := range recs {
		if !pick[i] {
			continue
		}
		k := offlineKinds[r.kind]
		s := offlineSample{label: fmt.Sprintf("batch %d (%s)", i, k.name), classes: r.classes}
		seqs := make([][]tensor.Vector, len(r.members))
		for m, idx := range r.members {
			if k.gru {
				seqs[m] = gpool[idx]
			} else {
				seqs[m] = lpool[idx]
			}
		}
		if k.gru {
			s.batch = nets.gru.RunBatch(seqs, gru.Baseline())
			for _, xs := range seqs {
				s.serial = append(s.serial, nets.gru.Run(xs, gru.Baseline()))
			}
		} else {
			s.batch = nets.lstm.RunBatch(seqs, k.opt)
			for _, xs := range seqs {
				s.serial = append(s.serial, nets.lstm.Run(xs, k.opt))
			}
		}
		out = append(out, s)
	}
	return out
}

// checkOffline requires the sampled members' batched logits to be
// bitwise equal to serial Run (equivtest.Batch), and the classes the
// timed ClassifyBatch returned to equal the serial argmax
// (equivtest.Classes).
func checkOffline(o *outcome, samples []offlineSample) {
	bad := 0
	first := ""
	members := 0
	for _, s := range samples {
		members += len(s.serial)
		want := make([]int, len(s.serial))
		for i, v := range s.serial {
			want[i] = tensor.ArgMax(v)
		}
		for _, fn := range []func(testing.TB){
			func(tb testing.TB) { equivtest.Batch(tb, s.label, s.batch, s.serial) },
			func(tb testing.TB) { equivtest.Classes(tb, s.label, s.classes, want) },
		} {
			if msg, ok := runCheck(fn); !ok {
				bad++
				if first == "" {
					first = msg
				}
			}
		}
	}
	o.check("offline.logits", bad == 0 && members > 0,
		"%d batches (%d members) vs serial Run: %d failed %s", len(samples), members, bad, first)
}

// checkTB adapts equivtest's testing.TB assertions to a plain check: a
// failure stops the assertion and is reported instead of failing a test.
type checkTB struct {
	testing.TB
	msg string
}

type checkFailed struct{}

func (c *checkTB) Helper() {}

func (c *checkTB) Fatalf(format string, args ...any) {
	c.msg = fmt.Sprintf(format, args...)
	panic(checkFailed{})
}

// runCheck runs one assertion and reports its first failure message.
func runCheck(fn func(testing.TB)) (msg string, ok bool) {
	tb := &checkTB{}
	defer func() {
		if r := recover(); r != nil {
			if _, isCheck := r.(checkFailed); !isCheck {
				panic(r)
			}
			msg, ok = tb.msg, false
		}
	}()
	fn(tb)
	return tb.msg, tb.msg == ""
}
