package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// runChild runs this benchmark's own binary with args, waits for it, and
// returns its standard output. Standard error passes through.
func runChild(exe string, args ...string) ([]byte, error) {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return out, fmt.Errorf("%s %s: %w", filepath.Base(exe), strings.Join(args, " "), err)
	}
	return out, nil
}

// lastLine returns the last non-empty line of out.
func lastLine(out []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	return lines[len(lines)-1]
}

// benchmarkSpec is the part of BENCHMARK.json the spread report reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadSpec(root string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// spreadRow is one metric's distribution over a workload's runs.
type spreadRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	Min      float64   `json:"min"`
	Max      float64   `json:"max"`
	// Spread is (Q3-Q1)/median, the share the bound is compared with.
	Spread float64 `json:"spread"`
	Bound  float64 `json:"bound"`
	// Flag is "over-bound" when Spread exceeds Bound.
	Flag string `json:"flag,omitempty"`
}

// spreadReport runs every workload n times, seeds 1..n, with
// the workloads interleaved so slow drift on the host spreads over all of
// them, and reports each end-to-end metric's median, quartiles, min/max and
// spread against its bound from BENCHMARK.json.
func spreadReport(root, out string, n, seconds int) error {
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := make(map[string]map[string][]float64) // workload -> metric -> values
	failures := 0
	for i := 0; i < n; i++ {
		seed := int64(i + 1)
		for _, w := range spec.Workloads {
			start := time.Now()
			stdout, err := runChild(exe, "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", "0", "-root", root, "-out", out)
			if err != nil {
				return err
			}
			var res result
			if err := json.Unmarshal(lastLine(stdout), &res); err != nil {
				return fmt.Errorf("%s seed %d: decoding result: %w", w.Name, seed, err)
			}
			if !res.Correct || res.Failed > 0 {
				failures++
			}
			if values[w.Name] == nil {
				values[w.Name] = make(map[string][]float64)
			}
			for name, m := range res.Metrics {
				values[w.Name][name] = append(values[w.Name][name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "spread: %s seed %d done in %v (correct=%v, %d/%d failed)\n",
				w.Name, seed, time.Since(start).Round(time.Second), res.Correct, res.Failed, res.Attempted)
		}
	}
	var rows []spreadRow
	fmt.Printf("%-15s %-16s %12s %12s %12s %12s %12s %8s %6s  %s\n",
		"workload", "metric", "median", "q1", "q3", "min", "max", "spread", "bound", "flag")
	for _, w := range spec.Workloads {
		for _, d := range spec.EndToEnd {
			vs := values[w.Name][d.Name]
			if len(vs) < 2 {
				return fmt.Errorf("%s: metric %s has %d values", w.Name, d.Name, len(vs))
			}
			q1, med, q3, err := quartiles(vs)
			if err != nil {
				return err
			}
			s := sortedCopy(vs)
			row := spreadRow{Workload: w.Name, Metric: d.Name, Unit: d.Unit, Values: vs, Median: med,
				Q1: q1, Q3: q3, Min: s[0], Max: s[len(s)-1], Spread: (q3 - q1) / med, Bound: d.Bound}
			if row.Spread > row.Bound {
				row.Flag = "over-bound"
			}
			rows = append(rows, row)
			fmt.Printf("%-15s %-16s %12.5g %12.5g %12.5g %12.5g %12.5g %8.4f %6.3f  %s\n",
				w.Name, d.Name, row.Median, row.Q1, row.Q3, row.Min, row.Max, row.Spread, row.Bound, row.Flag)
		}
	}
	data, err := json.MarshalIndent(map[string]any{"runs": n, "seconds": seconds,
		"host": probeHost(root), "failed_runs": failures, "rows": rows}, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(out, fmt.Sprintf("spread-%d.json", time.Now().Unix()))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("spread report: %s (%d runs with failed checks)\n", path, failures)
	if failures > 0 {
		return fmt.Errorf("%d runs had failed checks", failures)
	}
	return nil
}
