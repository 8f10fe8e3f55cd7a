// Command perfbench is the repository's benchmark. It sets up one workload
// from a seed, serves it through the real HTTP API on loopback, drives it
// from this process, checks every answer against an exact top-k oracle and
// prints each end-to-end metric by name, unit and sample count. With
// --trace 1 it instead replays the workload's requests one at a time through
// the HTTP API and the layer calls below it, writes the spans, and prints
// the per-layer metrics. The last line of standard output is the run's
// result as one JSON object.
//
// Usage (from the repository root; run.py builds this package first):
//
//	python3 perfbench/run.py --workload search-warm --seed 1 --seconds 14 --trace 0
//	python3 perfbench/run.py compare --bounds BENCHMARK.json parent.jsonl change.jsonl
//
// --record FILE appends each run's full record (host, sample counts, tags)
// to FILE; compare reads two such files.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "search-warm", "workload to run")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 20, "how long the run measures")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer replay instead of the end-to-end run")
		out     = flag.String("out", ".bench_out", "directory for spans and the run's temporary data files")
		recPath = flag.String("record", "", "append the run's full record to this JSON-lines file")
	)
	flag.Parse()
	spec, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	workDir, err := os.MkdirTemp(*out, "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(workDir)

	var res *runResult
	spanPath := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.jsonl", spec.name, *seed))
	if *trace == 1 {
		res, err = runTraced(spec, *seed, workDir, spanPath)
	} else {
		res, err = runUntraced(spec, *seed, *seconds, workDir)
	}
	if err != nil {
		return err
	}
	rec := report(os.Stdout, res, *seed, *trace == 1, spanPath)
	if *trace == 1 {
		// The per-layer metrics, tagged with what each should move, beside
		// the spans they were reduced from.
		b, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return err
		}
		layerPath := filepath.Join(*out, fmt.Sprintf("layers-%s-seed%d.json", spec.name, *seed))
		if err := os.WriteFile(layerPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("per-layer metrics written to %s\n", layerPath)
	}
	if *recPath != "" {
		if err := appendRecord(*recPath, rec); err != nil {
			return err
		}
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
