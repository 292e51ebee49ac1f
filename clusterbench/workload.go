package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"iaccf/internal/hashsig"
	"iaccf/internal/ledger"
)

type kind int

const (
	kindRTT     kind = iota // closed loop, one client over the submission RPC
	kindCluster             // open-loop phase A, closed-loop phase B, via Node.Submit
	kindAudit               // offline replay and receipt checks, no cluster
)

// spec sizes one workload. README.md gives the reason for each.
type spec struct {
	name    string
	kind    kind
	keys    int           // preloaded key space; measured puts draw keys uniformly from it
	rate    float64       // phase A open-loop rate, tx/s
	authors int           // phase A logical clients
	closed  int           // phase B outstanding logical clients
	batches int           // audit: ledger batches
	batch   int           // audit: requests per batch
	setups  int           // set-ups per run; setup_s is their median
	warmup  time.Duration // load before measuring, counted in setup_s
}

var workloads = map[string]spec{
	"rtt":      {name: "rtt", kind: kindRTT, keys: 4096, setups: 3, warmup: 300 * time.Millisecond},
	"hot":      {name: "hot", kind: kindCluster, keys: 4096, rate: 2500, authors: 4096, closed: 512, setups: 3, warmup: 500 * time.Millisecond},
	"bigstate": {name: "bigstate", kind: kindCluster, keys: 65536, rate: 600, authors: 4096, closed: 512, setups: 3, warmup: 500 * time.Millisecond},
	"audit":    {name: "audit", kind: kindAudit, keys: 4096, batches: 2000, batch: 64, setups: 3},
}

// config is one run.
type config struct {
	spec    spec
	seed    uint64
	measure time.Duration
	trace   bool
	outDir  string
	// minSamples is the fewest latency samples a run may report.
	minSamples int

	// tamperAt, when positive, corrupts the receipt of the tamperAt-th
	// measured request before the client checks it. Tests use it to show a
	// bad receipt fails the run.
	tamperAt int
	// check replaces the auditor's receipt check. Tests use an accept-all
	// check to show the corrupted-receipt control then fails the run.
	check func(rc *ledger.Receipt, pub *hashsig.PublicKey) bool
}

// result is what one run measured and found.
type result struct {
	correct   bool
	problems  []string
	attempted int
	failed    int
	e2e       map[string]float64
	layers    map[string]float64
	samples   map[string]int
	notes     []string // extra report lines
	spans     []spanStat
	tracer    *tracer // traced runs: the spans to write out
}

func newResult() *result {
	return &result{
		correct: true,
		e2e:     make(map[string]float64),
		layers:  make(map[string]float64),
		samples: make(map[string]int),
	}
}

// fail records a failed correctness check; any one fails the run.
func (r *result) fail(format string, args ...any) {
	r.correct = false
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func runWorkload(cfg config) (*result, error) {
	switch cfg.spec.kind {
	case kindAudit:
		return runAudit(cfg)
	default:
		return runCluster(cfg)
	}
}

// report prints the human-readable part of a run: environment, sample
// counts, every metric measured, notes and failed checks.
func (r *result) report(w io.Writer, env map[string]string) {
	var keys []string
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%s", k, env[k])
	}
	fmt.Fprintf(w, "env%s\n", b.String())
	fmt.Fprintf(w, "samples%s\n", formatCounts(r.samples))
	failedRatio := 0.0
	if r.attempted > 0 {
		failedRatio = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "requests attempted=%d failed=%d failed_ratio=%.6f\n", r.attempted, r.failed, failedRatio)
	for _, d := range endToEnd {
		fmt.Fprintf(w, "e2e %-16s %12.4f %s\n", d.name, r.e2e[d.name], d.unit)
	}
	if len(r.layers) > 0 {
		for _, d := range perLayer {
			fmt.Fprintf(w, "layer %-31s %12.4f %s\n", d.name, r.layers[d.name], d.unit)
		}
	}
	for _, s := range r.spans {
		fmt.Fprintf(w, "span %-16s n=%-8d mean_us=%-10.2f self_mean_us=%.2f\n", s.name, s.count, s.meanUs, s.selfMeanUs)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "FAILED CHECK %s\n", p)
	}
}

func formatCounts(m map[string]int) string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%d", k, m[k])
	}
	return b.String()
}
