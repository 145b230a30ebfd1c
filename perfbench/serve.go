package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mobilstm/internal/core"
	"mobilstm/internal/experiments"
	"mobilstm/internal/lstm"
	"mobilstm/internal/model"
	"mobilstm/internal/rng"
	"mobilstm/internal/sched"
	"mobilstm/internal/serve"
	"mobilstm/internal/tensor"
)

// serve-mixed: an open-loop stream into serve.New(serve.DefaultConfig())
// over MR and BABI (3:1 by count), both engines warmed first.
//
//   - operation: one request, timed from when it was due to be sent;
//   - latency_tail_ms: p99 at the reference rate (at least 10 samples
//     beyond it);
//   - throughput_per_s: requests served per second on the highest ladder
//     rung whose p99 stays within serveLimitMs without a growing backlog;
//   - ok_share: share of requests at the reference rate served without
//     error within serveLimitMs;
//   - setup_s: Server.Warm of both benchmarks on a fresh server.
var (
	serveBenches = []string{"MR", "BABI"}
	// serveLadder is the fixed arrival-rate ladder (requests/s),
	// straddling the knee measured on the parent commit on a 2-core box:
	// the two lower rungs hold the limit and 800 overruns the server. The
	// middle rung is the reference rate. A BABI request that shares its
	// batching window with another BABI request waits for that one's
	// serial forward. At 140/s a Poisson estimate puts about 1.7% of
	// requests in that group, so the p99 lies inside it; at 70/s it is
	// about 0.9%, and the p99 jumped between runs at the group's edge.
	serveLadder = []float64{70, 140, 800}
	// serveRungShare splits --seconds over the rungs; the reference rung
	// gets enough requests for a p99 with ten samples beyond it.
	serveRungShare = []float64{0.05, 0.9, 0.05}
	// serveMix is one block of eight requests: MR:BABI 3:1 by count, and
	// half of each benchmark's requests carry a caller sequence.
	serveMix = []struct {
		bench  int
		caller bool
	}{{0, false}, {0, false}, {0, false}, {0, true}, {0, true}, {0, true}, {1, false}, {1, true}}
)

const (
	serveLimitMs = 100.0
	serveTailP   = 0.99
	// serveInflightCap stops a rung whose backlog grows: past it the
	// rung is unsustainable, and stopping keeps the bounded queue
	// (QueueDepth 64) from rejecting.
	serveInflightCap = 48
	// servePool is the number of distinct caller-supplied sequences per
	// benchmark; about half the requests carry one of them.
	servePool   = 16
	serveRefIdx = 1
	// setupReps is how many fresh set-ups a run times (each costs
	// seconds of engine building); setup_s is their median.
	setupReps = 2
)

type serveOp struct {
	at    time.Duration // offset from the rung start
	bench int
	seq   int // caller pool index, or -1 for a corpus request
}

type served struct {
	op   serveOp
	rung int
	// due, sent and done are on the rung's steal-free clock; sentWall
	// and doneWall place the request on the wall clock for spans.
	due, sent, done    time.Duration
	sentWall, doneWall time.Time
	resp               *serve.Response
	err                error
}

// latencyMs is the time from when the request was due to its response;
// a failed request never meets a limit.
func (s *served) latencyMs() float64 {
	if s.err != nil {
		return math.Inf(1)
	}
	return (s.done - s.due).Seconds() * 1e3
}

// serveInputs is everything the seed generates: per-rung arrival
// schedules and the caller-supplied ragged sequences.
type serveInputs struct {
	rungs [][]serveOp
	pools [][][]tensor.Vector // [bench][i] sequence
}

func genServeInputs(seed uint64, seconds float64, rates []float64, benches []*core.Engine) serveInputs {
	r := rng.New(seed)
	var in serveInputs
	for _, e := range benches {
		// Ragged lengths evenly spread over [L/2, L], so every seed's pool
		// costs the same; the values are the seed's.
		pr := r.Split()
		pool := make([][]tensor.Vector, servePool)
		l := e.Inst.Length
		for i := range pool {
			pool[i] = randVecs(pr, l/2+i*(l-l/2)/(servePool-1), e.Inst.Net.Input())
		}
		in.pools = append(in.pools, pool)
	}
	for i, rate := range rates {
		// A Poisson stream conditioned on its count: n arrival times
		// drawn uniformly over the rung, sorted. Each block of eight
		// consecutive requests holds the mix exactly, in seed order.
		d := seconds * serveRungShare[i]
		n := int(math.Round(rate * d))
		gr := r.Split()
		ats := make([]time.Duration, n)
		for k := range ats {
			ats[k] = time.Duration(gr.Float64() * d * float64(time.Second))
		}
		sort.Slice(ats, func(a, b int) bool { return ats[a] < ats[b] })
		ops := make([]serveOp, n)
		var perm []int
		for k := range ops {
			if k%len(serveMix) == 0 {
				perm = gr.Perm(len(serveMix))
			}
			m := serveMix[perm[k%len(serveMix)]]
			op := serveOp{at: ats[k], bench: min(m.bench, len(benches)-1), seq: -1}
			if m.caller {
				op.seq = gr.Intn(servePool)
			}
			ops[k] = op
		}
		in.rungs = append(in.rungs, ops)
	}
	return in
}

// runRung drives one rung open-loop: each request is sent when due,
// whatever the server's state, by the generator goroutine. The schedule
// runs on the steal-free clock, so while the hypervisor holds the CPUs
// the arrivals stand still with the server. It stops sending once
// serveInflightCap requests are outstanding.
func runRung(srv *serve.Server, benches []string, in serveInputs, rung int, rec *recorder, reqBase int64) ([]served, bool) {
	ops := in.rungs[rung]
	out := make([]served, len(ops))
	var inflight atomic.Int64
	var wg sync.WaitGroup
	clock := newVirtualClock()
	sent := 0
	aborted := false
	for i, op := range ops {
		for v := clock.now(); v < op.at; v = clock.now() {
			time.Sleep(op.at - v)
		}
		if inflight.Load() >= serveInflightCap {
			aborted = true
			break
		}
		var seq []tensor.Vector
		if op.seq >= 0 {
			seq = in.pools[op.bench][op.seq]
		}
		s := served{op: op, rung: rung, due: op.at, sent: clock.now(), sentWall: time.Now()}
		id := reqBase + int64(i)
		dueWall := s.sentWall.Add(s.due - s.sent)
		root := rec.open("bench.request", -1, id, dueWall)
		rec.close(rec.open("bench.gen_late", root, id, dueWall), s.sentWall)
		sub := rec.open("serve.Submit", root, id, s.sentWall)
		inflight.Add(1)
		wg.Add(1)
		go func(i int, s served) {
			defer wg.Done()
			s.resp, s.err = srv.Submit(context.Background(), serve.Request{Bench: benches[s.op.bench], Seq: seq, Ref: -1})
			s.done, s.doneWall = clock.now(), time.Now()
			inflight.Add(-1)
			rec.close(sub, s.doneWall)
			rec.close(root, s.doneWall)
			out[i] = s
		}(i, s)
		sent++
	}
	wg.Wait()
	return out[:sent], aborted
}

// ladderResult is one pass over the rate ladder.
type ladderResult struct {
	recs    []served
	aborted []bool
}

func runLadder(srv *serve.Server, benches []string, in serveInputs, rec *recorder) ladderResult {
	var lr ladderResult
	base := int64(0)
	for i := range in.rungs {
		recs, ab := runRung(srv, benches, in, i, rec, base)
		base += int64(len(in.rungs[i]))
		lr.recs = append(lr.recs, recs...)
		lr.aborted = append(lr.aborted, ab)
	}
	return lr
}

func (lr ladderResult) rung(i int) []served {
	var out []served
	for _, s := range lr.recs {
		if s.rung == i {
			out = append(out, s)
		}
	}
	return out
}

// endToEnd fills the untraced metrics of one ladder pass.
func (lr ladderResult) endToEnd(o *outcome, rates []float64) {
	ref := lr.rung(serveRefIdx)
	lats := make([]float64, len(ref))
	ok := 0
	for i := range ref {
		lats[i] = ref[i].latencyMs()
		if lats[i] <= serveLimitMs {
			ok++
		}
	}
	o.set("latency_p50_ms", quantile(lats, 0.5), len(lats))
	o.set("latency_tail_ms", quantile(lats, serveTailP), len(lats))
	o.set("ok_share", float64(ok)/float64(max(1, len(ref))), len(ref))
	// The served rate of the highest rung that held the limit.
	for i := len(rates) - 1; i >= 0; i-- {
		rs := lr.rung(i)
		if lr.aborted[i] || len(rs) == 0 {
			continue
		}
		rl := make([]float64, len(rs))
		var last time.Duration
		for k := range rs {
			rl[k] = rs[k].latencyMs()
			last = max(last, rs[k].done)
		}
		if quantile(rl, serveTailP) <= serveLimitMs {
			o.set("throughput_per_s", float64(len(rs))/last.Seconds(), len(rs))
			return
		}
	}
	o.set("throughput_per_s", 0, 0)
}

func runServe(cfg runCfg) (*outcome, error) {
	o := newOutcome()
	benches, rates, reps := serveBenches, serveLadder, setupReps
	if cfg.smoke {
		benches, rates, reps = serveBenches[:1], []float64{20, 40, 60}, 1
	}
	if cfg.trace {
		reps = 1
	}
	prof := model.Default()

	// Set-up: a fresh server warmed on every served benchmark, several
	// times; the last one serves. The first publishes its engines to a
	// cache, so the output check has engines built independently of
	// the serving server's.
	cache := serve.NewEngineCache()
	var srv *serve.Server
	setups := make([]float64, reps)
	for i := range setups {
		sc := serve.DefaultConfig()
		if i == 0 && reps > 1 {
			sc.Cache = cache
		}
		s := serve.New(sc)
		c := stealNow()
		for _, b := range benches {
			if err := s.Warm(b); err != nil {
				s.Close()
				return nil, err
			}
		}
		setups[i] = c.elapsed().Seconds()
		if i < reps-1 {
			s.Close()
			continue
		}
		srv = s
	}
	defer srv.Close()
	o.set("setup_s", median(setups), reps)
	o.set("serve.warm_s", median(setups), reps)

	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	refs := make([]*core.Engine, len(benches))
	for i, b := range benches {
		// The key spells out serve's artifact key for the default
		// config; were that format to change, a miss only builds the
		// reference engine afresh.
		key := fmt.Sprintf("%s|%s|%d|%d", b, prof.Name, sched.Combined, serve.AutoSet)
		if art, ok := cache.Acquire(key); ok {
			refs[i] = art.Eng
			continue
		}
		cache.Abort(key)
		mb, err := experiments.Lookup(b)
		if err != nil {
			return nil, err
		}
		refs[i], _ = traceEngineBuild(o, rec, mb, prof)
	}

	in := genServeInputs(cfg.seed, cfg.seconds, rates, refs)
	timed := stealNow()
	lr := runLadder(srv, benches, in, nil)
	o.set("bench.steal_share", timed.stolen(), 1)
	lr.endToEnd(o, rates)
	o.set("live_heap_mb", liveHeapMB(), 1)
	all := lr.recs

	if cfg.trace {
		before := srv.Stats()
		tr := runLadder(srv, benches, in, rec)
		after := srv.Stats()
		traced := newOutcome()
		tr.endToEnd(traced, rates)
		p50 := o.metrics["latency_p50_ms"].Value
		o.set("trace.overhead_share", (traced.metrics["latency_p50_ms"].Value-p50)/p50, len(tr.recs))
		serveLayers(o, tr, before, after)
		all = append(all, tr.recs...)
		o.spans = rec.closed()
		o.spanStats = selfTimes(o.spans)
		o.set("trace.unaccounted_share", unaccountedShare(o.spanStats, "bench.request"), len(tr.recs))
	}

	for _, s := range all {
		o.attempted++
		if s.err != nil {
			o.failed++
		}
	}
	classifyMs := checkServe(o, all, in, refs)
	if cfg.trace {
		for i, b := range benches {
			o.set("lstm.classify_ms."+b, median(classifyMs[i]), len(classifyMs[i]))
		}
		serveReplays(o, all, refs)
	}
	return o, nil
}

// serveLayers fills the serving layer's per-layer metrics from the
// traced ladder at the reference rate.
func serveLayers(o *outcome, lr ladderResult, before, after serve.Snapshot) {
	ref := lr.rung(serveRefIdx)
	var waits, service, late []float64
	var busyMs float64
	failed := 0
	var first, last time.Time
	for _, s := range ref {
		if first.IsZero() || s.sentWall.Before(first) {
			first = s.sentWall
		}
		if s.err != nil {
			failed++
			continue
		}
		// Service is wall time, like the server's own WaitMs.
		w := s.resp.WaitMs
		svc := s.doneWall.Sub(s.sentWall).Seconds()*1e3 - w
		waits = append(waits, w)
		service = append(service, svc)
		busyMs += svc / float64(s.resp.BatchSize)
		if s.doneWall.After(last) {
			last = s.doneWall
		}
	}
	for _, s := range lr.recs {
		late = append(late, (s.sent-s.due).Seconds()*1e3)
	}
	o.set("serve.queue_wait_ms.p50", quantile(waits, 0.5), len(waits))
	o.set("serve.queue_wait_ms.p99", quantile(waits, serveTailP), len(waits))
	o.set("serve.service_ms.p50", quantile(service, 0.5), len(service))
	o.set("serve.service_ms.p99", quantile(service, serveTailP), len(service))
	o.set("bench.gen_late_ms.p99", quantile(late, serveTailP), len(late))
	o.set("serve.failed_share", float64(failed)/float64(max(1, len(ref))), len(ref))
	if len(ref) > 0 {
		wall := last.Sub(first).Seconds() * 1e3
		o.set("serve.host_busy_share", busyMs/(wall*float64(serve.DefaultConfig().Workers)), len(ref))
	}
	var windows, dropped, rejected, servedN int64
	for i, b := range after.Benches {
		prev := serve.BenchSnapshot{}
		if i < len(before.Benches) {
			prev = before.Benches[i]
		}
		windows += b.Windows - prev.Windows
		dropped += b.DroppedWindows - prev.DroppedWindows
		rejected += b.Rejected - prev.Rejected
		servedN += b.Served - prev.Served
	}
	o.set("serve.windows", float64(windows), int(windows))
	o.set("serve.dropped_windows", float64(dropped), int(windows))
	o.set("serve.rejected", float64(rejected), len(lr.recs))
	o.set("serve.batch_size.mean", float64(servedN)/float64(max(1, windows)), int(windows))
}

// serveReplays fills the per-layer metrics replayed on the reference
// engine of the longest served benchmark (the last one).
func serveReplays(o *outcome, all []served, refs []*core.Engine) {
	last := refs[len(refs)-1]
	set := -1
	for _, s := range all {
		if s.err == nil {
			set = s.resp.Set
			break
		}
	}
	seqs, _ := last.Inst.AccSeqs()
	opt := last.RunOptionsFor(sched.Combined, set)

	// Analyzer calls per run, weighted by the served request mix: the
	// Inter flow builds one analyzer per layer with more than one cell.
	calls := make([]int, len(refs))
	var tr *lstm.Trace
	for i, e := range refs {
		tr = &lstm.Trace{}
		eo := e.RunOptionsFor(sched.Combined, set)
		eo.Trace = tr
		s, _ := e.Inst.AccSeqs()
		e.Inst.Net.Run(s[0], eo)
		for _, lt := range tr.Layers {
			if lt.Relevance != nil {
				calls[i]++
			}
		}
	}
	total := 0
	for _, s := range all {
		total += calls[s.op.bench]
	}
	o.set("intercell.analyzer_calls_per_run", float64(total)/float64(max(1, len(all))), len(all))

	// tr is the last benchmark's traced run, at opt.
	replayKernels(o, last.Inst.Net.Layers[0], len(seqs[0]), traceSkipFrac(tr, last.Inst.Hidden), 0)
	replayAnalyzer(o, last.Inst.Net)
	replayAllocs(o, last.Inst.Net, seqs, opt, serve.DefaultConfig().MaxBatch)
	replayRuns(o, last.Inst.Net, seqs, []namedOpts{
		{"baseline", lstm.Baseline()},
		{"inter", last.RunOptionsFor(sched.Inter, set)},
		{"intra", last.RunOptionsFor(sched.Intra, set)},
		{"combined", opt},
	})
}

// traceSkipFrac is the skipped share of hidden rows over every execution
// unit of a traced run, from integer counts.
func traceSkipFrac(tr *lstm.Trace, hidden int) float64 {
	skipped, units := 0, 0
	for _, lt := range tr.Layers {
		for _, c := range lt.SkipCounts {
			skipped += c
			units++
		}
	}
	if units == 0 {
		return 0
	}
	return float64(skipped) / float64(units*hidden)
}

// refKey memoizes reference classifications.
type refKey struct {
	bench, seq, set int
	corpus          bool
}

// checkServe verifies every served class against serial
// lstm.Network.ClassifyE on the independently built reference engine at
// the served (mode, Response.Set) options. Caller-supplied requests are
// checked one by one; corpus requests draw round-robin samples in
// dispatch order, so their (class, reference label) pairs are checked as
// a multiset against the first K reference draws, which also pins the
// served-correct count. It returns the serial classify times per
// benchmark, in ms.
func checkServe(o *outcome, all []served, in serveInputs, refs []*core.Engine) [][]float64 {
	memo := make(map[refKey]int)
	times := make([][]float64, len(refs))
	refClass := func(k refKey) (int, error) {
		if c, ok := memo[k]; ok {
			return c, nil
		}
		e := refs[k.bench]
		var seq []tensor.Vector
		if k.corpus {
			seqs, _ := e.Inst.AccSeqs()
			seq = seqs[k.seq]
		} else {
			seq = in.pools[k.bench][k.seq]
		}
		t := time.Now()
		c, err := e.Inst.Net.ClassifyE(seq, e.RunOptionsFor(sched.Combined, k.set))
		times[k.bench] = append(times[k.bench], time.Since(t).Seconds()*1e3)
		memo[k] = c
		return c, err
	}

	callerBad, callerN := 0, 0
	type pair struct{ class, ref int }
	servedPairs := make([]map[pair]int, len(refs))
	draws := make([]int, len(refs))
	sets := make([]int, len(refs))
	for i := range servedPairs {
		servedPairs[i] = make(map[pair]int)
	}
	for _, s := range all {
		if s.err != nil {
			continue
		}
		b := s.op.bench
		if s.op.seq >= 0 {
			callerN++
			want, err := refClass(refKey{bench: b, seq: s.op.seq, set: s.resp.Set})
			if err != nil || want != s.resp.Class {
				callerBad++
			}
			continue
		}
		servedPairs[b][pair{s.resp.Class, s.resp.Ref}]++
		draws[b]++
		sets[b] = s.resp.Set
	}
	o.check("serve.caller_classes", callerBad == 0 && callerN > 0,
		"%d of %d caller-sequence classes differ from serial ClassifyE", callerBad, callerN)

	corpusBad := 0
	detail := ""
	for b, e := range refs {
		seqs, labels := e.Inst.AccSeqs()
		want := make(map[pair]int)
		wantCorrect, gotCorrect := 0, 0
		for k := 0; k < draws[b]; k++ {
			i := k % len(seqs)
			c, err := refClass(refKey{bench: b, seq: i, set: sets[b], corpus: true})
			if err != nil {
				corpusBad++
			}
			want[pair{c, labels[i]}]++
			if c == labels[i] {
				wantCorrect++
			}
		}
		for p, n := range servedPairs[b] {
			if p.class == p.ref {
				gotCorrect += n
			}
			if want[p] != n {
				corpusBad++
			}
		}
		if len(want) != len(servedPairs[b]) {
			corpusBad++
		}
		if wantCorrect != gotCorrect {
			corpusBad++
		}
		detail += fmt.Sprintf("%s: %d corpus draws, served-correct %d vs reference %d; ", e.B.Name, draws[b], gotCorrect, wantCorrect)
	}
	o.check("serve.corpus_classes", corpusBad == 0, "%s%d mismatches", detail, corpusBad)
	return times
}
