package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
)

// spreadMain runs sets of runs of each workload, each run with its own
// seed, and prints every end-to-end metric's quartile spread (Q3-Q1 as
// a share of the median) against its bound. With two or more sets it
// also prints how far each set's median drifts from the first set's.
func spreadMain(args []string) error {
	fs := flag.NewFlagSet("spread", flag.ContinueOnError)
	workloads := fs.String("workload", "", "comma-separated workloads (default: all)")
	runs := fs.Int("runs", 10, "runs per set")
	sets := fs.Int("sets", 1, "sets of runs")
	seconds := fs.Float64("seconds", defaultSeconds, "--seconds passed to each run")
	seed0 := fs.Int64("seed", 1, "seed of the first run; later runs count up")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	names := []string{}
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if *workloads != "" {
		names = strings.Split(*workloads, ",")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	ok := true
	for _, wl := range names {
		var medians []map[string]float64
		for set := 0; set < *sets; set++ {
			values := map[string][]float64{}
			for i := 0; i < *runs; i++ {
				seed := *seed0 + int64(set**runs+i)
				res, err := runOnce(self, wl, seed, *seconds)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", wl, seed, err)
				}
				for name, mv := range res.Metrics {
					values[name] = append(values[name], mv.Value)
				}
			}
			fmt.Printf("workload %s, set %d, %d runs\n", wl, set+1, *runs)
			fmt.Printf("  %-30s %12s %8s %8s %s\n", "metric", "median", "spread", "bound", "verdict")
			med := map[string]float64{}
			for _, m := range spec.EndToEnd {
				xs := values[m.Name]
				sp := quartileSpread(xs)
				med[m.Name] = median(xs)
				verdict := "steady"
				switch {
				case sp > m.Bound:
					verdict, ok = "OVER BOUND", false
				case sp > m.Bound/3:
					verdict = "above bound/3"
				}
				fmt.Printf("  %-30s %12.4f %8.4f %8.3f %s\n", m.Name, med[m.Name], sp, m.Bound, verdict)
				fmt.Printf("  %-30s %v\n", "", roundAll(xs))
			}
			medians = append(medians, med)
		}
		for set := 1; set < len(medians); set++ {
			fmt.Printf("workload %s, set %d against set 1 (worse-by share)\n", wl, set+1)
			for _, m := range spec.EndToEnd {
				a, b := medians[0][m.Name], medians[set][m.Name]
				worse := (b - a) / a
				if m.Better == "higher" {
					worse = (a - b) / a
				}
				verdict := "ok"
				if worse > m.Bound {
					verdict, ok = "WORSE THAN BOUND", false
				}
				fmt.Printf("  %-30s %+8.4f %8.3f %s\n", m.Name, worse, m.Bound, verdict)
			}
		}
	}
	if !ok {
		return fmt.Errorf("some spreads exceed their bounds")
	}
	return nil
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1000) / 1000
	}
	return out
}

// runOnce runs one untraced benchmark run in a child process and
// returns its result line.
func runOnce(self, wl string, seed int64, seconds float64) (result, error) {
	cmd := exec.Command(self, "--workload", wl, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		tail := stderr.Bytes()
		if len(tail) > 2000 {
			tail = tail[len(tail)-2000:]
		}
		return result{}, fmt.Errorf("%w\n%s", err, tail)
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, fmt.Errorf("result line %q: %w", last, err)
	}
	if !res.Correct || res.Failed > 0 {
		return res, fmt.Errorf("run not clean: correct=%v failed=%d", res.Correct, res.Failed)
	}
	return res, nil
}
