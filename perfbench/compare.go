package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json the compare mode reads.
type benchmarkFile struct {
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

// compareMain compares two result sets — JSON-lines files of run records,
// the parent's first — by the rule for measuring on a small machine:
// medians and quartiles per (metric, workload), the share of alternating
// pairs the change wins, and a verdict that stays "unresolved" where the
// runs spread wider than the metric's bound.
func compareMain(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	bounds := fs.String("bounds", "BENCHMARK.json", "benchmark definition with each metric's bound")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: compare [--bounds BENCHMARK.json] parent.jsonl change.jsonl")
	}
	var bench benchmarkFile
	b, err := os.ReadFile(*bounds)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		return fmt.Errorf("%s: %w", *bounds, err)
	}
	parent, err := readRecords(fs.Arg(0))
	if err != nil {
		return err
	}
	change, err := readRecords(fs.Arg(1))
	if err != nil {
		return err
	}
	var metrics []metricRule
	for _, m := range bench.EndToEnd {
		metrics = append(metrics, metricRule{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range bench.PerLayer {
		metrics = append(metrics, metricRule{m.Name, m.Unit, m.Better, math.NaN()})
	}
	return compareSets(os.Stdout, metrics, parent, change)
}

// metricRule is how one metric is judged; a NaN bound marks a per-layer
// metric, which is reported but never judged a regression.
type metricRule struct {
	name, unit, better string
	bound              float64
}

// readRecords loads a JSON-lines file of run records.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// verdict judges one (metric, workload) pair of series.
type verdict struct {
	parentQ, changeQ [3]float64
	pairs, wins      int
	change           float64 // relative change of the median; positive is worse
	outcome          string
}

// judge applies the comparison rule to the parent's and the change's values
// of one metric, in run order (run i of each side forms pair i).
func judge(rule metricRule, parent, change []float64) verdict {
	var v verdict
	worse := func(a, b float64) bool { // is a worse than b?
		if rule.better == "higher" {
			return a < b
		}
		return a > b
	}
	q1, q2, q3, okP := quartiles(parent)
	v.parentQ = [3]float64{q1, q2, q3}
	c1, c2, c3, okC := quartiles(change)
	v.changeQ = [3]float64{c1, c2, c3}
	if !okP || !okC {
		v.outcome = "too few runs"
		return v
	}
	v.pairs = min(len(parent), len(change))
	for i := 0; i < v.pairs; i++ {
		if worse(parent[i], change[i]) {
			v.wins++
		}
	}
	if q2 != 0 {
		v.change = (c2 - q2) / math.Abs(q2)
		if rule.better == "higher" {
			v.change = -v.change
		}
	}
	parentSpread := q3 - q1
	spread := math.Max(parentSpread, c3-c1) / math.Abs(q2)
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			if !worse(p, c) {
				allBetter = false
			}
		}
	}
	gain := float64(v.wins) >= 0.9*float64(v.pairs) && math.Abs(c2-q2) > parentSpread && worse(q2, c2)
	switch {
	case gain:
		v.outcome = "gain"
	case allBetter:
		v.outcome = "better in every run"
	case math.IsNaN(rule.bound):
		v.outcome = "per-layer (no bound)"
	case spread > rule.bound:
		v.outcome = "unresolved (spread wider than bound)"
	case v.change > rule.bound:
		v.outcome = "REGRESSION"
	default:
		v.outcome = "within bound"
	}
	return v
}

// compareSets prints one row per (metric, workload) present on both sides.
func compareSets(w io.Writer, rules []metricRule, parent, change []record) error {
	series := func(recs []record) map[string]map[string][]float64 {
		out := map[string]map[string][]float64{}
		for _, r := range recs {
			for name, m := range r.Result.Metrics {
				if out[r.Workload] == nil {
					out[r.Workload] = map[string][]float64{}
				}
				out[r.Workload][name] = append(out[r.Workload][name], m.Value)
			}
		}
		return out
	}
	ps, cs := series(parent), series(change)
	var wls []string
	for wl := range ps {
		if _, ok := cs[wl]; ok {
			wls = append(wls, wl)
		}
	}
	sort.Strings(wls)
	if len(wls) == 0 {
		return fmt.Errorf("no workload appears in both result sets")
	}
	fmt.Fprintf(w, "%-14s %-40s %-8s %-32s %-32s %7s %8s  %s\n",
		"workload", "metric", "unit", "parent q1/median/q3", "change q1/median/q3", "wins", "change", "verdict")
	regressions := 0
	for _, wl := range wls {
		for _, rule := range rules {
			p, c := ps[wl][rule.name], cs[wl][rule.name]
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			v := judge(rule, p, c)
			if v.outcome == "REGRESSION" {
				regressions++
			}
			fmt.Fprintf(w, "%-14s %-40s %-8s %10.4g/%10.4g/%10.4g %10.4g/%10.4g/%10.4g %3d/%-3d %+7.1f%%  %s\n",
				wl, rule.name, rule.unit, v.parentQ[0], v.parentQ[1], v.parentQ[2],
				v.changeQ[0], v.changeQ[1], v.changeQ[2], v.wins, v.pairs, 100*v.change, v.outcome)
		}
	}
	fmt.Fprintf(w, "%d regression(s) beyond bound\n", regressions)
	return nil
}
