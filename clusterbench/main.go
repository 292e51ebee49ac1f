// Command clusterbench measures IA-CCF end to end: a 4-replica cluster
// booted inside this process and wired exactly as cmd/node wires it, driven
// by an in-process load generator, plus the offline audit path that replays
// a ledger and checks receipts against it. README.md explains the workloads
// and metrics; run.sh builds and runs it from the repository root.
//
// A plain run (-trace 0) prints the end-to-end metrics. A traced run
// (-trace 1) wraps the node's injected interfaces, records spans and
// counters around every call into them, and prints the per-layer metrics
// plus the tracing overhead against the plain runs recorded so far. The
// last line of standard output is always one JSON object:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// processStart approximates the process start: setup_s of the first set-up
// in a run counts from here.
var processStart = time.Now()

type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a plain run reports. Their meaning per workload
// is tabulated in README.md: on the cluster workloads latency is commit
// latency and goodput counts verified receipts; on audit latency is one
// receipt check, goodput is receipts checked per second and peak is ledger
// entries replayed per second.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"goodput_tx_s", "1/s", "higher"},
	{"peak_tx_s", "1/s", "higher"},
}

// perLayer are the metrics a traced run reports, named layer.metric after
// the repository's packages. A layer a workload does not run (the cluster
// layers on audit) reports 0.
var perLayer = []metricDef{
	{"loadgen.lag_p99_ms", "ms", "lower"},
	{"loadgen.outstanding_max", "count", "lower"},
	{"client.verify_us", "us", "lower"},
	{"client.verify_tries", "ratio", "lower"},
	{"node.entries_per_batch", "ratio", "higher"},
	{"node.ticks_per_commit", "ratio", "lower"},
	{"node.inbound_us", "us", "lower"},
	{"txpool.depth_mean", "count", "lower"},
	{"txpool.depth_max", "count", "lower"},
	{"transport.frames_per_tx", "ratio", "lower"},
	{"transport.bytes_per_tx", "B", "lower"},
	{"transport.send_us", "us", "lower"},
	{"transport.dropped", "count", "lower"},
	{"consensus.preprepare_per_batch", "ratio", "lower"},
	{"consensus.prepare_per_batch", "ratio", "lower"},
	{"consensus.commit_per_batch", "ratio", "lower"},
	{"consensus.retransmit_share", "ratio", "lower"},
	{"consensus.view_changes", "count", "lower"},
	{"consensus.sync_frames", "count", "lower"},
	{"consensus.decode_us", "us", "lower"},
	{"ledger.executes_per_tx", "ratio", "lower"},
	{"ledger.execute_us", "us", "lower"},
	{"ledger.execute_batch_ms", "ms", "lower"},
	{"ledger.apply_batch_ms", "ms", "lower"},
	{"kv.checkpoint_digest_ms", "ms", "lower"},
	{"hashsig.verify_us", "us", "lower"},
	{"merkle.path_verify_us", "us", "lower"},
	{"runtime.gc_cpu_fraction", "ratio", "lower"},
	{"runtime.heap_peak_mb", "MB", "lower"},
	{"runtime.alloc_kb_per_tx", "KB", "lower"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the command line, runs one workload and prints its report and
// result line. Exit codes: 0 correct, 1 a correctness check failed, 2 the
// run could not be made.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("clusterbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: rtt, hot, bigstate or audit")
	seed := fs.Uint64("seed", 1, "workload seed: authors, request numbers, keys and values derive from it")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 for a traced run reporting per-layer metrics")
	out := fs.String("out", "", "directory for result logs and span files (empty: write none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "clusterbench: need -workload %s, -seconds >= 1, -trace 0|1\n", workloadNames())
		return 2
	}
	cfg := config{
		spec:    sp,
		seed:    *seed,
		measure: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		outDir:  *out,
		// A p99 needs at least 10 samples beyond it.
		minSamples: 1000,
	}
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "clusterbench: %s: %v\n", sp.name, err)
		return 2
	}
	env := environment(cfg)
	res.report(stdout, env)
	if cfg.trace {
		reportOverhead(stdout, cfg, env, res)
	}
	if cfg.outDir != "" {
		if err := appendLog(cfg, env, res); err != nil {
			fmt.Fprintf(stderr, "clusterbench: %v\n", err)
			return 2
		}
	}
	line, err := json.Marshal(res.jsonLine(cfg.trace))
	if err != nil {
		fmt.Fprintf(stderr, "clusterbench: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// jsonLine selects the metric set the run reports: end-to-end for plain
// runs, per-layer for traced ones.
func (r *result) jsonLine(traced bool) jsonResult {
	defs, vals := endToEnd, r.e2e
	if traced {
		defs, vals = perLayer, r.layers
	}
	m := make(map[string]jsonMetric, len(defs))
	for _, d := range defs {
		m[d.name] = jsonMetric{Value: vals[d.name], Unit: d.unit}
	}
	return jsonResult{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: m}
}
