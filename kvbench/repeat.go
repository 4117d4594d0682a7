package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// summary is one metric's distribution over repeated runs. The
// quartiles are those of Python's statistics.quantiles(n=4), the
// exclusive method.
type summary struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Spread float64 `json:"iqr_share"` // (q3-q1)/median
}

func summarize(xs []float64, unit string) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		if len(s) == 1 {
			return s[0]
		}
		p := float64(len(s)+1) * float64(k) / 4
		j := min(max(int(p), 1), len(s)-1)
		return s[j-1] + (p-float64(j))*(s[j]-s[j-1])
	}
	out := summary{Unit: unit, N: len(s), Median: median(s), Q1: q(1), Q3: q(3), Min: s[0]}
	out.Spread = ratio(out.Q3-out.Q1, out.Median)
	return out
}

// repeatRuns runs each chosen workload o.repeat times, each in a fresh
// process of this program with the next seed, and prints a summary of
// every metric stamped with the host. It returns the exit code.
func repeatRuns(o options) int {
	var specs []spec
	if o.workload == "all" {
		specs = workloads
	} else if s, ok := lookupSpec(o.workload); ok {
		specs = []spec{s}
	} else {
		fmt.Fprintf(os.Stderr, "kvbench: unknown workload %q\n", o.workload)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvbench: %v\n", err)
		return 1
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	type workloadSummary struct {
		Runs      int                `json:"runs"`
		Correct   bool               `json:"correct"`
		Attempted int64              `json:"attempted"`
		Failed    int64              `json:"failed"`
		Metrics   map[string]summary `json:"metrics"`
	}
	out := map[string]workloadSummary{}
	code := 0
	for _, s := range specs {
		values := map[string][]float64{}
		units := map[string]string{}
		ws := workloadSummary{Correct: true}
		for i := 0; i < o.repeat; i++ {
			seed := strconv.FormatInt(o.seed+int64(i), 10)
			cmd := exec.Command(self, "--workload", s.name, "--seed", seed,
				"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", trace)
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			runErr := cmd.Run()
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var r result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil || runErr != nil {
				fmt.Fprintf(os.Stderr, "kvbench: %s seed %s: run failed: %v %v\n", s.name, seed, runErr, err)
				ws.Correct, code = false, 1
				continue
			}
			for _, l := range lines {
				fmt.Fprintf(os.Stderr, "kvbench: %s seed %s: %s\n", s.name, seed, l)
			}
			ws.Runs++
			ws.Correct = ws.Correct && r.Correct
			ws.Attempted += r.Attempted
			ws.Failed += r.Failed
			for name, m := range r.Metrics {
				values[name] = append(values[name], m.Value)
				units[name] = m.Unit
			}
		}
		ws.Metrics = map[string]summary{}
		for name, xs := range values {
			ws.Metrics[name] = summarize(xs, units[name])
		}
		out[s.name] = ws
	}
	line, err := json.MarshalIndent(map[string]any{"host": hostStamp(), "seconds": o.seconds, "trace": o.trace, "workloads": out}, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return code
}
