// Command perfbench is the federation benchmark: one process wires a
// hub and two satellites from the repository's public constructors,
// drives a seeded workload through shred -> ingest -> WAL/binlog ->
// replicate (facts and pushdown) -> hub apply -> aggregate -> query
// cache -> REST, checks the results, and prints one JSON line.
//
//	perfbench --workload live --seed 1 --seconds 15 --trace 0
//	perfbench spread --workload live --runs 10
//
// With --trace 0 the result carries every end-to-end metric; with
// --trace 1 every per-layer metric, spans are kept in memory and
// written to .perfbench/traces/ when the run ends. See spec.json for
// the settings and the metric catalogue.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workDir holds WAL files and trace output, relative to the checkout
// root the benchmark runs from.
const workDir = ".perfbench"

// defaultSeconds is the traffic phase's default length, the run_seconds
// BENCHMARK.json gives the runs it gates.
const defaultSeconds = 15

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// errInvalid marks a run whose numbers cannot be trusted because the
// load generator, not the system, fell behind its schedule.
var errInvalid = errors.New("run invalid")

// genLateLimitMS is how late (p95, beyond any wait the system caused)
// the generator may send before a run is declared invalid.
const genLateLimitMS = 50

func main() {
	if len(os.Args) > 1 && os.Args[1] == "spread" {
		if err := spreadMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench spread:", err)
			os.Exit(1)
		}
		return
	}
	code, err := benchMain(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func benchMain(args []string) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wlName := fs.String("workload", "", "workload name (see spec.json)")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", defaultSeconds, "length of the timed traffic phase")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	spec, err := loadSpec()
	if err != nil {
		return 2, err
	}
	wl, ok := spec.workload(*wlName)
	if !ok {
		return 2, fmt.Errorf("unknown workload %q", *wlName)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return 2, fmt.Errorf("--seconds must be positive and --trace 0 or 1")
	}
	runDir := filepath.Join(workDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return 2, err
	}
	defer os.RemoveAll(runDir)

	host := map[string]any{
		"cpus": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"seed": *seed, "workload": wl.Name, "seconds": *seconds, "trace": *trace,
	}
	hostLine, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hostLine)

	r := &runner{set: wl.Settings, seed: *seed, trace: *trace == 1, dir: runDir,
		seconds: time.Duration(*seconds * float64(time.Second))}
	if r.trace {
		r.rec = newRecorder()
	}
	if err := r.run(); err != nil {
		return 1, err
	}
	fmt.Printf("samples chart=%d freshness=%d pushdown_freshness=%d\n", len(r.chartMS), len(r.freshMS), len(r.pushMS))
	if r.trace {
		if err := writeTrace(r, wl.Name, *seed); err != nil {
			return 1, err
		}
	}
	res := result{Correct: len(r.problems) == 0, Attempted: r.attempted.Load(), Failed: r.failed.Load(), Metrics: map[string]metricValue{}}
	list, values := spec.EndToEnd, r.e2e
	if r.trace {
		list, values = spec.PerLayer, r.layer
	}
	for _, m := range list {
		v, ok := values[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return 1, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if !r.trace && v == 0 {
			return 1, fmt.Errorf("metric %s measured 0", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for _, m := range append(append([]Metric(nil), spec.EndToEnd...), spec.PerLayer...) {
		if v, ok := r.e2e[m.Name]; ok {
			fmt.Fprintf(os.Stderr, "perfbench: %-36s %14.4f %s\n", m.Name, v, m.Unit)
		} else if v, ok := r.layer[m.Name]; ok {
			fmt.Fprintf(os.Stderr, "perfbench: %-36s %14.4f %s\n", m.Name, v, m.Unit)
		}
	}
	if late := r.layer["gen.late_p95_ms"]; late > genLateLimitMS {
		return 3, fmt.Errorf("%w: load generator p95 lateness %.1f ms exceeds %d ms", errInvalid, late, genLateLimitMS)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1, fmt.Errorf("%d correctness checks failed", len(r.problems))
	}
	return 0, nil
}

// writeTrace stores the spans and prints per-layer self times.
func writeTrace(r *runner, workload string, seed int64) error {
	dir := filepath.Join(workDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	self, err := r.rec.write(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s; self time by span:\n", path)
	for _, name := range sortedKeys(self) {
		fmt.Fprintf(os.Stderr, "  %-32s %10.4f s\n", name, self[name])
	}
	return nil
}
