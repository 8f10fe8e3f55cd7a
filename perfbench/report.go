package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// layerMeta describes a per-layer metric: its layer, and which end-to-end
// metric it should move on which workload.
type layerMeta struct {
	name, unit, better, layer string
	moves, on                 string
}

// layerMetas lists the traced run's per-layer metrics in report order.
var layerMetas = []layerMeta{
	{"server.search_self_ms", "ms", "lower", "server", "search_p50_ms", "search-warm"},
	{"server.search_resp_bytes", "bytes", "lower", "server", "search_p50_ms", "search-warm"},
	{"server.batch_self_ms", "ms", "lower", "server", "update_p50_ms", "update-mixed"},
	{"server.router_self_ms", "ms", "lower", "server (router)", "search_p99_ms", "search-routed"},
	{"core.search_self_ms", "ms", "lower", "core", "search_p50_ms", "search-warm"},
	{"core.termstats_ms", "ms", "lower", "core", "search_p50_ms", "search-routed"},
	{"core.flush_commit_ms", "ms", "lower", "core", "update_p50_ms update_capacity_ops", "update-mixed"},
	{"relation.update_ms", "ms", "lower", "relation, view", "update_p50_ms", "update-mixed"},
	{"relation.load_s", "s", "lower", "relation", "setup_s", "all"},
	{"core.build_s", "s", "lower", "core", "setup_s", "all"},
	{"core.open_ms", "ms", "lower", "core", "setup_s", "search-spill"},
	{"index.topk_ms", "ms", "lower", "index", "search_p50_ms", "all"},
	{"index.postings_per_query", "count", "lower", "index, postings, topk", "search_p50_ms", "search-warm update-mixed"},
	{"index.stopped_frac", "ratio", "higher", "index, topk", "search_p50_ms", "search-warm update-mixed"},
	{"index.score_lookups_per_query", "count", "lower", "index, btree", "search_p50_ms", "search-spill"},
	{"index.short_list_entries", "count", "lower", "index", "search_p50_ms update_p50_ms", "update-mixed"},
	{"index.short_postings_written_per_update", "count", "lower", "index", "update_p50_ms", "update-mixed"},
	{"btree.patches_per_update", "ratio", "higher", "btree", "update_p50_ms", "update-mixed"},
	{"epoch.advances_per_batch", "count", "lower", "epoch", "update_p99_ms heap_mb", "update-mixed"},
	{"epoch.retained_pages_max", "count", "lower", "epoch", "update_p99_ms heap_mb", "update-mixed"},
	{"buffer.hit_ratio", "ratio", "higher", "buffer", "search_p50_ms search_p99_ms", "search-spill"},
	{"buffer.misses_per_query", "count", "lower", "buffer", "search_p50_ms search_p99_ms", "search-spill"},
	{"buffer.evictions_per_query", "count", "lower", "buffer", "search_p50_ms search_p99_ms", "search-spill"},
	{"buffer.flushes_per_batch", "count", "lower", "buffer", "update_p50_ms", "update-mixed"},
	{"pagefile.reads_per_query", "count", "lower", "pagefile", "search_p99_ms", "search-spill"},
	{"pagefile.write_bytes_per_update", "bytes", "lower", "pagefile", "update_capacity_ops", "update-mixed"},
	{"pagefile.wal_bytes_per_update", "bytes", "lower", "pagefile", "update_capacity_ops", "update-mixed"},
	{"pagefile.fsyncs_per_batch", "count", "lower", "pagefile", "update_p99_ms", "update-mixed"},
	{"pagefile.commits_per_batch", "count", "lower", "pagefile", "update_p99_ms", "update-mixed"},
	{"index.long_list_bytes_per_user_byte", "ratio", "lower", "index, postings, blob", "store_bytes_per_user_byte", "all"},
	{"index.compression_ratio", "ratio", "higher", "index, postings", "store_bytes_per_user_byte", "all"},
	{"pagefile.pages", "count", "lower", "pagefile", "store_bytes_per_user_byte", "all"},
	{"loadgen.late_p99_ms", "ms", "lower", "benchmark", "validity only", "all"},
	{"trace.overhead_frac", "ratio", "lower", "benchmark", "validity only", "all"},
}

// e2eNames are the end-to-end metrics the result line carries: the ones
// BENCHMARK.json bounds. The report prints the rest too. Tails, the search
// capacity and the update capacity spread too widely from run to run on a
// small shared machine to hold any admissible bound, and failed_frac is zero
// on a correct run (the result's failed and attempted counts carry it).
var e2eNames = []string{
	"setup_s", "search_p50_ms", "update_p50_ms", "heap_mb", "store_bytes_per_user_byte",
}

// layerMetric is one measured per-layer figure.
type layerMetric struct {
	layerMeta
	value float64
	n     int
}

// layerMetrics reduces a traced replay to the per-layer metrics.
func (tr *traceRun) layerMetrics(end counterSet, pages int64, untraced, late phaseResult) []layerMetric {
	per := func(total float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return total / float64(n)
	}
	mean := func(v []float64) float64 {
		var s float64
		for _, x := range v {
			s += x
		}
		return per(s, len(v))
	}
	bc := tr.batchCounters
	updates := bc["index.score_updates"]
	nq := len(tr.httpRT)
	hitRatio := 0.0
	if tr.hits+tr.misses > 0 {
		hitRatio = tr.hits / (tr.hits + tr.misses)
	}
	compression := 0.0
	if end.idx.LongListBytes > 0 {
		compression = float64(end.idx.LongListRawBytes) / float64(end.idx.LongListBytes)
	}
	overhead := 0.0
	if untraced.Service.P50 > 0 {
		overhead = median(tr.httpRT)/untraced.Service.P50 - 1
	}
	values := map[string]struct {
		v float64
		n int
	}{
		"server.search_self_ms":                   {median(tr.httpSelf), len(tr.httpSelf)},
		"server.search_resp_bytes":                {mean(tr.respBytes), len(tr.respBytes)},
		"server.batch_self_ms":                    {median(tr.batchSelf), len(tr.batchSelf)},
		"server.router_self_ms":                   {median(tr.routerSelf), len(tr.routerSelf)},
		"core.search_self_ms":                     {median(tr.coreSelf), len(tr.coreSelf)},
		"core.termstats_ms":                       {median(tr.termstats), len(tr.termstats)},
		"core.flush_commit_ms":                    {median(tr.flushCommit), len(tr.flushCommit)},
		"relation.update_ms":                      {median(tr.relUpdate), len(tr.relUpdate)},
		"relation.load_s":                         {tr.r.t.load.Seconds(), 1},
		"core.build_s":                            {tr.r.t.build.Seconds(), 1},
		"core.open_ms":                            {ms(tr.r.t.open), 1},
		"index.topk_ms":                           {median(tr.topk), len(tr.topk)},
		"index.postings_per_query":                {mean(tr.postings), len(tr.postings)},
		"index.stopped_frac":                      {mean(tr.stopped), len(tr.stopped)},
		"index.score_lookups_per_query":           {mean(tr.lookups), len(tr.lookups)},
		"index.short_list_entries":                {float64(end.idx.ShortListEntries), 1},
		"index.short_postings_written_per_update": {per(bc["index.short_postings_written"], int(updates)), int(updates)},
		"btree.patches_per_update":                {per(bc["index.table_patches"], int(updates)), int(updates)},
		"epoch.advances_per_batch":                {per(bc["index.epoch_advances"], tr.batches), tr.batches},
		"epoch.retained_pages_max":                {tr.retainedMax, nq + tr.batches},
		"buffer.hit_ratio":                        {hitRatio, nq},
		"buffer.misses_per_query":                 {per(tr.misses, nq), nq},
		"buffer.evictions_per_query":              {per(tr.evictions, nq), nq},
		"buffer.flushes_per_batch":                {per(bc["buffer.flushes"], tr.batches), tr.batches},
		"pagefile.reads_per_query":                {per(tr.fileReads, nq), nq},
		"pagefile.write_bytes_per_update":         {per(bc["pagefile.bytes_written"], int(updates)), int(updates)},
		"pagefile.wal_bytes_per_update":           {per(bc["pagefile.wal_bytes"], int(updates)), int(updates)},
		"pagefile.fsyncs_per_batch":               {per(bc["pagefile.fsyncs"], tr.batches), tr.batches},
		"pagefile.commits_per_batch":              {per(bc["pagefile.commits"], tr.batches), tr.batches},
		"index.long_list_bytes_per_user_byte":     {float64(end.idx.LongListBytes) / float64(tr.in.userBytes), 1},
		"index.compression_ratio":                 {compression, 1},
		"pagefile.pages":                          {float64(pages), 1},
		"loadgen.late_p99_ms":                     {late.Late.Tail, late.Late.N},
		"trace.overhead_frac":                     {overhead, nq},
	}
	out := make([]layerMetric, len(layerMetas))
	for i, m := range layerMetas {
		v := values[m.name]
		out[i] = layerMetric{layerMeta: m, value: v.v, n: v.n}
	}
	return out
}

// host describes where a result was measured.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Source     string `json:"source"`
	Flush      string `json:"flush"`
}

func hostInfo(spec *workloadSpec) host {
	h := host{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     "unknown (not a git checkout)",
		Source:     sourceDigest("."),
		Flush:      spec.flushPolicy(),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
	}
	return h
}

// sourceDigest hashes the Go sources and module files under root, so a
// result names the code it measured even where there is no git history.
func sourceDigest(root string) string {
	var files []string
	// The callback skips what it cannot read, so the walk cannot fail.
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is a run as the compare mode reads it.
type record struct {
	Workload string                 `json:"workload"`
	Seed     int64                  `json:"seed"`
	Trace    bool                   `json:"trace"`
	Inputs   string                 `json:"inputs"`
	Host     host                   `json:"host"`
	Samples  map[string]int         `json:"samples"`
	Result   resultLine             `json:"result"`
	Layers   map[string]layerRecord `json:"layers,omitempty"`
}

// layerRecord is a per-layer metric with the tags naming what it should move.
type layerRecord struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Layer string  `json:"layer"`
	Moves string  `json:"moves"`
	On    string  `json:"on"`
}

// report prints the human-readable report and returns the run's record.
func report(w io.Writer, res *runResult, seed int64, traced bool, spanPath string) record {
	h := hostInfo(res.spec)
	d := res.d
	rec := record{
		Workload: res.spec.name, Seed: seed, Trace: traced, Inputs: res.in.hash, Host: h,
		Samples: map[string]int{},
		Result:  resultLine{Attempted: max(1, d.attempted), Failed: d.failed, Metrics: map[string]metricValue{}},
	}
	rec.Result.Correct = d.failed == 0
	fmt.Fprintf(w, "workload %s  seed %d  inputs %s  (%d docs x %d tokens, %d updates, %d queries)\n",
		res.spec.name, seed, res.in.hash, res.in.corpus.NumDocs(), res.in.corpus.Params().TermsPerDoc, len(res.in.updates), len(res.in.queries))
	fmt.Fprintf(w, "host cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s source=%s\n", h.CPU, h.NProc, h.GOMAXPROCS, h.Go, h.Commit, h.Source)
	fmt.Fprintf(w, "flush policy: %s\n", h.Flush)
	if traced {
		rec.Layers = map[string]layerRecord{}
		fmt.Fprintf(w, "traced run: %d spans written to %s\n", res.spans, spanPath)
		fmt.Fprintf(w, "self time = a span's duration minus its children's; children replay the same request one layer down\n")
		for _, m := range res.layers {
			fmt.Fprintf(w, "  %-40s %14.6g %-6s n=%-5d layer=%s moves=%s on=%s\n", m.name, m.value, m.unit, m.n, m.layer, m.moves, m.on)
			rec.Layers[m.name] = layerRecord{Value: m.value, Unit: m.unit, N: m.n, Layer: m.layer, Moves: m.moves, On: m.on}
			rec.Result.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
			rec.Samples[m.name] = m.n
		}
	} else {
		for _, m := range res.metrics {
			fmt.Fprintf(w, "  %-28s %14.6g %-5s n=%-6d %s\n", m.name, m.value, m.unit, m.n, m.note)
			rec.Samples[m.name] = m.n
			for _, name := range e2eNames {
				if name == m.name {
					rec.Result.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
				}
			}
		}
	}
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d oracle-checked=%d\n", rec.Result.Correct, d.attempted, d.failed, d.checked)
	for _, e := range d.errs {
		fmt.Fprintf(w, "  failure: %s\n", e)
	}
	return rec
}

// appendRecord adds a run's record to a JSON-lines file.
func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
