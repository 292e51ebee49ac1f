package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// environment is recorded with every result: the core count and
// GOMAXPROCS say whether the host was oversubscribed, and the commit (or,
// outside a git checkout, a digest of the Go sources) says what ran.
func environment(cfg config) map[string]string {
	commit := os.Getenv("CLUSTERBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]string{
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"commit":     commit,
		"source":     sourceDigest("."),
		"workload":   cfg.spec.name,
		"seed":       strconv.FormatUint(cfg.seed, 10),
		"seconds":    strconv.Itoa(int(cfg.measure.Seconds())),
		"trace":      strconv.FormatBool(cfg.trace),
	}
}

// sourceDigest hashes every go.mod and .go file under root, skipping
// hidden directories such as the build directory.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if d.Name() != "go.mod" && !strings.HasSuffix(path, ".go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// logRecord is one run in the results log.
type logRecord struct {
	Time      string             `json:"time"`
	Env       map[string]string  `json:"env"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Samples   map[string]int     `json:"samples"`
	E2E       map[string]float64 `json:"e2e"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Problems  []string           `json:"problems,omitempty"`
}

func logPath(cfg config) string {
	return filepath.Join(cfg.outDir, "results", cfg.spec.name+".jsonl")
}

// appendLog appends the run to the workload's results log and, for a
// traced run, writes its spans, replacing the last traced run's.
func appendLog(cfg config, env map[string]string, res *result) error {
	if err := os.MkdirAll(filepath.Join(cfg.outDir, "results"), 0o755); err != nil {
		return err
	}
	rec := logRecord{Time: time.Now().UTC().Format(time.RFC3339), Env: env, Correct: res.correct,
		Attempted: res.attempted, Failed: res.failed, Samples: res.samples, E2E: res.e2e, Problems: res.problems}
	if cfg.trace {
		rec.Layers = res.layers
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(logPath(cfg), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if cfg.trace && res.tracer != nil {
		dir := filepath.Join(cfg.outDir, "traces")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		return res.tracer.writeSpans(filepath.Join(dir, cfg.spec.name+".jsonl"))
	}
	return nil
}

// reportOverhead prints each end-to-end metric of this traced run next to
// the median of the plain runs in the results log of the same workload,
// length and source digest.
func reportOverhead(w io.Writer, cfg config, env map[string]string, res *result) {
	plain := make(map[string][]float64)
	n := 0
	if cfg.outDir != "" {
		if f, err := os.Open(logPath(cfg)); err == nil {
			sc := bufio.NewScanner(f)
			sc.Buffer(make([]byte, 1<<20), 1<<20)
			for sc.Scan() {
				var rec logRecord
				if json.Unmarshal(sc.Bytes(), &rec) != nil || rec.Env["trace"] != "false" || !rec.Correct ||
					rec.Env["seconds"] != env["seconds"] || rec.Env["source"] != env["source"] {
					continue
				}
				n++
				for k, v := range rec.E2E {
					plain[k] = append(plain[k], v)
				}
			}
			f.Close()
		}
	}
	for _, d := range endToEnd {
		traced := res.e2e[d.name]
		if n == 0 {
			fmt.Fprintf(w, "overhead %-16s traced=%.4f %s plain_median=none (no plain runs logged)\n", d.name, traced, d.unit)
			continue
		}
		m := median(plain[d.name])
		delta := 0.0
		if m != 0 {
			delta = (traced - m) / m * 100
		}
		fmt.Fprintf(w, "overhead %-16s traced=%.4f %s plain_median=%.4f (n=%d) delta=%+.1f%%\n", d.name, traced, d.unit, m, n, delta)
	}
}
