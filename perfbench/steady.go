package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json the steadiness mode reads.
type benchmarkSpec struct {
	Workloads []named `json:"workloads"`
	EndToEnd  []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

type named struct {
	Name string `json:"name"`
}

// runOutput is a child run's last line.
type runOutput struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// steadiness runs every workload of BENCHMARK.json runs times in child
// processes, interleaved (seed 1 of every workload, then seed 2, ...) so
// that a host drifting over minutes affects each workload alike, and prints
// for each end-to-end metric the quartile spread as a share of the median
// next to the metric's bound. It reads BENCHMARK.json from the working
// directory, the root of a checkout.
func steadiness(runs int, seconds float64, stdout, stderr io.Writer) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("steadiness mode: %w", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("steadiness mode: BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	outs := map[string][]runOutput{}
	for seed := 1; seed <= runs; seed++ {
		for _, wl := range spec.Workloads {
			var buf bytes.Buffer
			cmd := exec.Command(self, "--workload", wl.Name, "--seed", strconv.Itoa(seed),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
			cmd.Stdout, cmd.Stderr = &buf, stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", wl.Name, seed, err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var o runOutput
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &o); err != nil {
				return fmt.Errorf("%s seed %d: last line: %w", wl.Name, seed, err)
			}
			outs[wl.Name] = append(outs[wl.Name], o)
			fmt.Fprintf(stdout, "run %-15s seed %2d correct=%v attempted=%d failed=%d", wl.Name, seed, o.Correct, o.Attempted, o.Failed)
			for _, m := range spec.EndToEnd {
				fmt.Fprintf(stdout, " %s=%.4g", m.Name, o.Metrics[m.Name].Value)
			}
			fmt.Fprintln(stdout)
		}
	}
	fmt.Fprintf(stdout, "\n%-15s %-18s %12s %12s %12s %8s %6s  %s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			var v []float64
			for _, o := range outs[wl.Name] {
				v = append(v, o.Metrics[m.Name].Value)
			}
			med := median(v)
			q1, q3 := quartiles(v)
			spread := (q3 - q1) / med
			verdict := "ok"
			switch {
			case spread > m.Bound:
				verdict = "OVER BOUND"
			case spread > m.Bound/3:
				verdict = "over a third"
			}
			fmt.Fprintf(stdout, "%-15s %-18s %12.5g %12.5g %12.5g %8.4f %6.3f  %s\n", wl.Name, m.Name, med, q1, q3, spread, m.Bound, verdict)
		}
		var shares []string
		for _, o := range outs[wl.Name] {
			shares = append(shares, fmt.Sprintf("%d/%d", o.Failed, o.Attempted))
		}
		fmt.Fprintf(stdout, "%-15s failed/attempted: %s\n", wl.Name, strings.Join(shares, " "))
	}
	return nil
}
