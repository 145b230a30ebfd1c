package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// compareMain compares two result files written by a run:
//
//	perfbench compare old.json new.json
//
// It refuses (exit 2) when their environment stamps or workloads differ
// — numbers from another box, toolchain or kernel chain are not
// comparable — and otherwise prints each metric's change against the
// end-to-end bound, exiting 1 when an end-to-end metric worsened by more
// than its bound.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare old.json new.json")
		return 2
	}
	var recs [2]record
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &recs[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench compare: %s: %v\n", path, err)
			return 2
		}
	}
	old, cur := recs[0], recs[1]
	if diffs := stampDiff(old.Stamp, cur.Stamp); len(diffs) > 0 {
		fmt.Fprintln(stderr, "perfbench compare: environment stamps differ, refusing to compare:")
		for _, d := range diffs {
			fmt.Fprintln(stderr, "  "+d)
		}
		return 2
	}
	if old.Workload != cur.Workload || old.Trace != cur.Trace {
		fmt.Fprintf(stderr, "perfbench compare: %s/trace=%v vs %s/trace=%v are different runs\n",
			old.Workload, old.Trace, cur.Workload, cur.Trace)
		return 2
	}
	bounds := make(map[string]metricDef)
	for _, d := range endToEnd {
		bounds[d.Name] = d
	}
	names := make([]string, 0, len(cur.Metrics))
	for n := range cur.Metrics {
		if _, ok := old.Metrics[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	worse := false
	for _, n := range names {
		o, c := old.Metrics[n], cur.Metrics[n]
		change := 0.0
		if o.Value != 0 {
			change = (c.Value - o.Value) / o.Value
		}
		verdict := ""
		if d, ok := bounds[n]; ok {
			loss := change
			if d.Better == "higher" {
				loss = -change
			}
			verdict = fmt.Sprintf("within bound %.2f", d.Bound)
			if loss > d.Bound {
				verdict = fmt.Sprintf("WORSE than bound %.2f", d.Bound)
				worse = true
			}
		}
		fmt.Fprintf(stdout, "%-34s %14.6g -> %14.6g %-6s %+7.2f%% %s\n", n, o.Value, c.Value, c.Unit, 100*change, verdict)
	}
	if worse {
		return 1
	}
	return 0
}

// stampDiff lists the fields in which two stamps differ.
func stampDiff(a, b stamp) []string {
	var out []string
	add := func(field string, x, y any) {
		if x != y {
			out = append(out, fmt.Sprintf("%s: %v vs %v", field, x, y))
		}
	}
	add("nproc", a.NProc, b.NProc)
	add("gomaxprocs", a.GOMAXPROCS, b.GOMAXPROCS)
	add("go_version", a.GoVersion, b.GoVersion)
	add("cpu_model", a.CPUModel, b.CPUModel)
	add("cpu_features", a.CPUFeatures, b.CPUFeatures)
	add("kernel_chain", a.KernelChain, b.KernelChain)
	add("profile", a.Profile, b.Profile)
	return out
}
