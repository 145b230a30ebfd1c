// Command perfbench is the repository benchmark. It drives one of three
// workloads through the system's public entry points, checks every
// output for correctness, and prints every end-to-end metric (or, with
// --trace 1, every per-layer metric) by name with its unit and sample
// count. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through perfbench/run.sh, which
// builds this program into .bench_build first:
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 16 --trace 0
//	bash perfbench/run.sh compare old.json new.json
//
// Every run also writes its full result (environment stamp, metrics with
// sample counts, checks) to .bench_build/results, and a traced run its
// spans to .bench_build/spans; compare refuses results whose stamps
// differ.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// runCfg is one invocation's settings.
type runCfg struct {
	seed    uint64
	seconds float64
	trace   bool
	// smoke shrinks every workload to a few operations (self-tests).
	smoke bool
}

// checkResult is one output check.
type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// outcome is what a workload returns.
type outcome struct {
	metrics   map[string]measure
	attempted int
	failed    int
	checks    []checkResult
	spans     []span
	spanStats []spanStat
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]measure)} }

func (o *outcome) set(name string, v float64, n int) {
	o.metrics[name] = measure{Value: v, Unit: unitOf(name), N: n}
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, checkResult{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (o *outcome) correct() bool {
	for _, c := range o.checks {
		if !c.OK {
			return false
		}
	}
	return len(o.checks) > 0
}

var workloads = map[string]func(runCfg) (*outcome, error){
	wServe:   runServe,
	wSweep:   runSweep,
	wOffline: runOffline,
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

// record is the full result written to the results directory.
type record struct {
	Stamp     stamp              `json:"stamp"`
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]measure `json:"metrics"`
	Checks    []checkResult      `json:"checks"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: serve-mixed, sweep or offline-batch")
	seed := fs.Uint64("seed", 1, "workload seed: every generated input derives from it")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	smoke := fs.Bool("smoke", false, "shrink the workload to a few operations (self-test)")
	out := fs.String("out", ".bench_build", "directory for result and span files")
	golden := fs.String("record-golden", "", "evaluate every sweep point and write its fingerprints to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *golden != "" {
		if err := recordGolden(*golden); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload one of %v, --seconds > 0, --trace 0|1\n", workloadNames())
		return 2
	}
	// The benchmark is defined at two cores: more would make results
	// incomparable across boxes, fewer is what a small box has.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	cfg := runCfg{seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke}
	st := envStamp()
	envLine, _ := json.Marshal(st)
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%g trace=%d\n", *workload, *seed, *seconds, *trace)
	fmt.Fprintf(stdout, "# env %s\n", envLine)

	o, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := result{Correct: o.correct(), Attempted: o.attempted, Failed: o.failed,
		Metrics: make(map[string]map[string]any, len(defs))}
	for _, d := range defs {
		m, ok := o.metrics[d.Name]
		note := ""
		if !ok {
			note = "  n/a: not exercised by this workload"
		}
		fmt.Fprintf(stdout, "# metric %-34s %14.6g %-6s n=%d%s\n", d.Name, m.Value, d.Unit, m.N, note)
		res.Metrics[d.Name] = map[string]any{"value": m.Value, "unit": d.Unit}
	}
	if m, ok := o.metrics["bench.steal_share"]; ok && !cfg.trace {
		fmt.Fprintf(stdout, "# steal_share %.4f (hypervisor steal in the timed phase; durations exclude it)\n", m.Value)
	}
	if cfg.trace {
		fmt.Fprintln(stdout, "# note tensor.*_gbps are bytes computed from tensor sizes per call, not measured memory traffic")
	}
	printSpanTable(stdout, o.spanStats)
	for _, c := range o.checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAILED"
		}
		fmt.Fprintf(stdout, "# check %-28s %s: %s\n", c.Name, verdict, c.Detail)
	}

	rec := record{Stamp: st, Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: cfg.trace,
		Correct: res.Correct, Attempted: o.attempted, Failed: o.failed, Metrics: o.metrics, Checks: o.checks}
	if err := writeRecord(*out, rec, o.spans); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// writeRecord writes the full result, and the spans of a traced run.
func writeRecord(dir string, rec record, spans []span) error {
	base := fmt.Sprintf("%s-seed%d-trace%d", rec.Workload, rec.Seed, map[bool]int{false: 0, true: 1}[rec.Trace])
	if err := os.MkdirAll(filepath.Join(dir, "results"), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "results", base+".json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	if len(spans) == 0 {
		return nil
	}
	if err := os.MkdirAll(filepath.Join(dir, "spans"), 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "spans", base+".jsonl"))
	if err != nil {
		return err
	}
	return errors.Join(writeSpans(f, spans), f.Close())
}
