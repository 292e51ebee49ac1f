package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"iaccf/internal/hashsig"
	"iaccf/internal/ledger"
)

// tiny shrinks a workload to a smoke run of well under a second.
func tiny(name string) config {
	sp := workloads[name]
	sp.setups = 2
	sp.warmup = 50 * time.Millisecond
	switch sp.kind {
	case kindAudit:
		sp.batches, sp.batch = 12, 8
	case kindCluster:
		sp.keys, sp.rate, sp.authors, sp.closed = sp.keys/64, 400, 64, 32
	case kindRTT:
		sp.keys = 256
	}
	return config{spec: sp, seed: 7, measure: 400 * time.Millisecond}
}

func workloadList() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestSmokeEmitsEveryMetric runs every workload at a tiny size, plain and
// traced, and checks that each run is correct and reports exactly the
// metric set its mode promises.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	for _, name := range workloadList() {
		for _, traced := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "/plain", true: "/traced"}[traced], func(t *testing.T) {
				cfg := tiny(name)
				cfg.trace = traced
				res, err := runWorkload(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct {
					t.Fatalf("run failed its checks: %v", res.problems)
				}
				if res.attempted < 1 || res.failed != 0 {
					t.Fatalf("attempted %d, failed %d", res.attempted, res.failed)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				line := res.jsonLine(traced)
				if len(line.Metrics) != len(defs) {
					t.Fatalf("%d metrics emitted, want %d", len(line.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := line.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s missing or with unit %q", d.name, m.Unit)
					}
				}
				for _, d := range endToEnd {
					if res.e2e[d.name] <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, res.e2e[d.name])
					}
				}
			})
		}
	}
}

// TestTamperedReceiptFailsRun corrupts one genuine receipt: the client (on
// a cluster workload) or the auditor must reject it and fail the run.
func TestTamperedReceiptFailsRun(t *testing.T) {
	for _, name := range []string{"hot", "audit"} {
		t.Run(name, func(t *testing.T) {
			cfg := tiny(name)
			cfg.tamperAt = 3
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.correct {
				t.Fatal("a run with a tampered receipt passed its checks")
			}
		})
	}
}

// TestControlCatchesVacuousCheck replaces the auditor's receipt check with
// one that accepts anything: the corrupted-receipt control must then fail
// the run, so the audit's checks cannot pass vacuously.
func TestControlCatchesVacuousCheck(t *testing.T) {
	cfg := tiny("audit")
	cfg.check = func(*ledger.Receipt, *hashsig.PublicKey) bool { return true }
	res, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.correct || !strings.Contains(strings.Join(res.problems, "\n"), "control") {
		t.Fatalf("an accept-all check passed the control: correct=%v problems=%v", res.correct, res.problems)
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the program's
// metric tables in step, and its workloads a subset of the program's.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
	for _, c := range []struct {
		json []metric
		prog []metricDef
	}{{bj.EndToEnd, endToEnd}, {bj.PerLayer, perLayer}} {
		if len(c.json) != len(c.prog) {
			t.Errorf("BENCHMARK.json lists %d metrics, program %d", len(c.json), len(c.prog))
			continue
		}
		for i, m := range c.json {
			if p := c.prog[i]; m.Name != p.name || m.Unit != p.unit || m.Better != p.better {
				t.Errorf("BENCHMARK.json metric %v, program %v", m, p)
			}
		}
	}
}

// TestBadArgumentsPrintNoResult checks that a run that cannot be made
// exits non-zero without a result line.
func TestBadArgumentsPrintNoResult(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nosuch"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, out.String())
	}
}
