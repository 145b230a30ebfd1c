package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"mobilstm/internal/core"
	"mobilstm/internal/experiments"
	"mobilstm/internal/model"
	"mobilstm/internal/rng"
	"mobilstm/internal/sched"
	"mobilstm/internal/serve"
	"mobilstm/internal/tensor"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the metric registry")

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricRegistry(t *testing.T) {
	if len(endToEnd) < 1 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", len(endToEnd))
	}
	if len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(perLayer))
	}
	seen := map[string]bool{}
	maxBound := 0.0
	for _, ms := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range ms {
			if !nameRE.MatchString(d.Name) || seen[d.Name] {
				t.Errorf("metric name %q invalid or repeated", d.Name)
			}
			seen[d.Name] = true
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: unit %q invalid", d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: better %q", d.Name, d.Better)
			}
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		maxBound = max(maxBound, d.Bound)
	}
	if !seen["setup_s"] || unitOf("setup_s") != "s" {
		t.Fatal("setup_s (unit s) is required")
	}
	for _, d := range endToEnd {
		if d.Name == "setup_s" && (d.Bound != maxBound || d.Better != "lower") {
			t.Errorf("setup_s must be lower-is-better with the largest bound")
		}
	}
}

// Every per-layer metric declares the end-to-end metric it should move
// and the workloads it is measured on.
func TestPerLayerTargets(t *testing.T) {
	e2e := map[string]bool{}
	for _, d := range endToEnd {
		e2e[d.Name] = true
	}
	for _, d := range perLayer {
		if d.Moves == "" || d.On == "" {
			t.Errorf("%s: no target declared", d.Name)
			continue
		}
		for _, w := range strings.Split(d.On, ",") {
			if _, ok := workloads[w]; !ok {
				t.Errorf("%s: unknown workload %q", d.Name, w)
			}
		}
		target := strings.Fields(strings.Split(d.Moves, ",")[0])[0]
		if target != "none" && !e2e[target] && !perLayerFamily(target) {
			t.Errorf("%s: moves unknown metric %q", d.Name, target)
		}
	}
}

// perLayerFamily reports whether name prefixes a per-layer metric.
func perLayerFamily(name string) bool {
	for _, d := range perLayer {
		if strings.HasPrefix(d.Name, name) {
			return true
		}
	}
	return false
}

type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func registryFile(runSeconds int) benchFile {
	var f benchFile
	f.Command = []string{"bash", "perfbench/run.sh"}
	f.Paths = []string{"perfbench"}
	f.RunSeconds = runSeconds
	for _, w := range workloadWhy {
		f.Workloads = append(f.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		}{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		f.PerLayer = append(f.PerLayer, struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		}{d.Name, d.Unit, d.Better})
	}
	return f
}

// BENCHMARK.json is the registry, verbatim.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	want := registryFile(got.RunSeconds)
	wb, _ := json.MarshalIndent(want, "", "  ")
	wb = append(wb, '\n')
	if *update {
		if err := os.WriteFile(path, wb, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if !bytes.Equal(b, wb) {
		t.Fatalf("BENCHMARK.json differs from the registry; run go test -run TestBenchmarkJSON -update")
	}
	if got.RunSeconds < 1 || got.RunSeconds > 60 || len(got.Workloads) < 2 || len(got.Workloads) > 8 {
		t.Errorf("run_seconds %d / %d workloads out of range", got.RunSeconds, len(got.Workloads))
	}
	for _, w := range got.Workloads {
		if _, ok := workloads[w.Name]; !ok || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: unknown, or why too long", w.Name)
		}
	}
}

// The smoke mode runs every workload end to end, untraced and traced,
// with its output checks, and prints the contract's last line.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	dir := t.TempDir()
	for _, w := range workloadNames() {
		for _, tr := range []string{"0", "1"} {
			var out, errb bytes.Buffer
			code := run([]string{"--workload", w, "--seed", "7", "--seconds", "0.5", "--trace", tr, "--smoke", "--out", dir}, &out, &errb)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool                      `json:"correct"`
				Attempted int                       `json:"attempted"`
				Failed    int                       `json:"failed"`
				Metrics   map[string]map[string]any `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line not a result: %v\n%s%s", w, tr, err, out.String(), errb.String())
			}
			if code != 0 || !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%s: exit %d, result %+v\n%s", w, tr, code, res, out.String())
			}
			defs := endToEnd
			if tr == "1" {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w, tr, len(res.Metrics), len(defs))
			}
		}
	}
}

// One flipped class in the served responses fails the serve checker,
// for caller-supplied and for corpus requests alike.
func TestServeCheckerCatchesFlippedClass(t *testing.T) {
	b, err := experiments.Lookup("MR")
	if err != nil {
		t.Fatal(err)
	}
	ref := core.NewEngine(b, model.Default(), serve.DefaultConfig().GPU)
	const set = 5
	in := genServeInputs(3, 10, []float64{40, 40, 40}, []*core.Engine{ref})
	seqs, labels := ref.Inst.AccSeqs()
	opt := ref.RunOptionsFor(sched.Combined, set)
	var all []served
	corpus := 0
	for _, op := range in.rungs[0] {
		s := served{op: op, resp: &serve.Response{Set: set, Ref: -1}}
		if op.seq >= 0 {
			s.resp.Class = ref.Inst.Net.Classify(in.pools[0][op.seq], opt)
		} else {
			i := corpus % len(seqs)
			corpus++
			s.resp.Class, s.resp.Ref = ref.Inst.Net.Classify(seqs[i], opt), labels[i]
		}
		all = append(all, s)
	}
	clean := newOutcome()
	checkServe(clean, all, in, []*core.Engine{ref})
	if !clean.correct() {
		t.Fatalf("clean responses fail: %+v", clean.checks)
	}
	for _, corpusReq := range []bool{false, true} {
		bad := append([]served(nil), all...)
		for i := range bad {
			if (bad[i].op.seq < 0) == corpusReq {
				r := *bad[i].resp
				r.Class = (r.Class + 1) % ref.Inst.Net.Classes()
				bad[i].resp = &r
				break
			}
		}
		o := newOutcome()
		checkServe(o, bad, in, []*core.Engine{ref})
		if o.correct() {
			t.Errorf("flipped class (corpus=%v) passed: %+v", corpusReq, o.checks)
		}
	}
}

// One flipped bit of one outcome fails the sweep fingerprint check.
func TestSweepCheckerCatchesFlippedBit(t *testing.T) {
	o := newOutcome()
	engs, err := sweepEngines(o, nil, sweepBenches[:1], 1)
	if err != nil {
		t.Fatal(err)
	}
	order := []point{{0, sched.Combined, 4}, {0, sched.Intra, 9}}
	pass := sweepPass{}
	for _, pt := range order {
		pass.outs = append(pass.outs, engs[0].EvaluateSet(pt.mode, pt.set))
	}
	clean := newOutcome()
	checkSweep(clean, sweepBenches, order, []sweepPass{pass})
	if !clean.correct() {
		t.Fatalf("clean outcomes fail: %+v", clean.checks)
	}
	flipped := *pass.outs[1]
	flipped.Accuracy = math.Float64frombits(math.Float64bits(flipped.Accuracy) ^ 1)
	pass.outs[1] = &flipped
	bad := newOutcome()
	checkSweep(bad, sweepBenches, order, []sweepPass{pass})
	if bad.correct() {
		t.Fatal("flipped accuracy bit passed the fingerprint check")
	}
}

// One flipped logit bit, or one flipped class, fails the offline check.
func TestOfflineCheckerCatchesCorruption(t *testing.T) {
	nets, err := buildOfflineNets()
	if err != nil {
		t.Fatal(err)
	}
	o := newOutcome()
	r := rng.New(9)
	lpool := make([][]tensor.Vector, offlinePool)
	for i := range lpool {
		lpool[i] = randVecs(r, nets.length, nets.lstm.Input())
	}
	recs, _ := runOfflineBatches(nets, lpool, lpool, 0, 1, nil)
	samples := offlineSamples(nets, recs, lpool, lpool, 1)
	checkOffline(o, samples)
	if !o.correct() {
		t.Fatalf("clean batch fails: %+v", o.checks)
	}

	bitFlip := samples[0]
	bitFlip.batch = append(bitFlip.batch[:0:0], bitFlip.batch...)
	v := bitFlip.batch[3].Clone()
	v[0] = math.Float32frombits(math.Float32bits(v[0]) ^ 1)
	bitFlip.batch[3] = v
	o = newOutcome()
	checkOffline(o, []offlineSample{bitFlip})
	if o.correct() {
		t.Error("flipped logit bit passed")
	}

	classFlip := samples[0]
	classFlip.classes = append([]int(nil), classFlip.classes...)
	classFlip.classes[5] = (classFlip.classes[5] + 1) % nets.lstm.Classes()
	o = newOutcome()
	checkOffline(o, []offlineSample{classFlip})
	if o.correct() {
		t.Error("flipped class passed")
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(v int64) int64 { return v * int64(time.Millisecond) }
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: ms(0), End: ms(10)},
		{ID: 1, Parent: 0, Name: "a", Start: ms(1), End: ms(4)},
		{ID: 2, Parent: 0, Name: "b", Start: ms(3), End: ms(6)},  // overlaps a
		{ID: 3, Parent: 0, Name: "b", Start: ms(8), End: ms(12)}, // runs past root
	}
	st := selfTimes(spans)
	got := map[string]spanStat{}
	for _, s := range st {
		got[s.Name] = s
	}
	if got["root"].Self != 3*time.Millisecond { // 10 - [1,6) - [8,10)
		t.Errorf("root self %v, want 3ms", got["root"].Self)
	}
	if got["b"].Count != 2 || got["b"].Total != 7*time.Millisecond {
		t.Errorf("b aggregate %+v", got["b"])
	}
	if s := unaccountedShare(st, "root"); math.Abs(s-0.3) > 1e-12 {
		t.Errorf("unaccounted share %v, want 0.3", s)
	}
}

// compare refuses results measured in different environments.
func TestCompareRefusesDifferentStamps(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, st stamp) string {
		rec := record{Stamp: st, Workload: wSweep, Metrics: map[string]measure{
			"latency_p50_ms": {Value: 10, Unit: "ms"}}}
		b, _ := json.Marshal(rec)
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := envStamp()
	b := a
	b.KernelChain = "avx2"
	pa, pb, pc := write("a.json", a), write("b.json", b), write("c.json", a)
	var out, errb bytes.Buffer
	if code := compareMain([]string{pa, pb}, &out, &errb); code != 2 || !strings.Contains(errb.String(), "kernel_chain") {
		t.Errorf("differing stamps: exit %d, stderr %q", code, errb.String())
	}
	if code := compareMain([]string{pa, pc}, &out, &errb); code != 0 {
		t.Errorf("identical stamps: exit %d, stderr %q", code, errb.String())
	}
}
