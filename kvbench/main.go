// Command kvbench drives the replicated KV through its public API on
// three workloads, checks every reply against a model of its own, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics) as the last line of its output. See README.md.
//
// Run it from the repository root:
//
//	bash kvbench/run.sh --workload inproc-write --seed 1 --seconds 16 --trace 0
//	bash kvbench/run.sh --workload all --repeat 10 --seconds 16
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func hostStamp() host {
	h := host{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return h
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			h.CPU = strings.TrimSpace(v)
			break
		}
	}
	return h
}

type options struct {
	workload     string
	seed         int64
	seconds      float64
	trace        bool
	repeat       int
	corruptModel bool
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: inproc-write, inproc-read90, tcp-failover (or all, with --repeat)")
	flag.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the saturated and single-caller phases together")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced run and reports the per-layer metrics")
	flag.IntVar(&o.repeat, "repeat", 0, "run each workload this many times in fresh processes, seeds seed..seed+n-1, and summarize")
	flag.BoolVar(&o.corruptModel, "corrupt-model", false, "corrupt one model entry before the final read-back; the run must then fail")
	flag.Parse()
	o.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 || o.seconds <= 0 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	if o.repeat > 0 {
		os.Exit(repeatRuns(o))
	}
	s, ok := lookupSpec(o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "kvbench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	res, err := run(s, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvbench: %s: %v\n", s.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// outDir is where the traced run writes its spans: the build directory
// the benchmark's runner uses, inside the checkout.
func outDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return filepath.Join(d, "kvbench-spans")
	}
	return filepath.Join(".bench_build", "kvbench-spans")
}

func splitWindows(wins []windowStats) (untraced, traced []windowStats) {
	for _, w := range wins {
		if w.traced {
			traced = append(traced, w)
		} else {
			untraced = append(untraced, w)
		}
	}
	return untraced, traced
}

// quantileOf reports the q-quantile of f over the windows, linearly
// interpolated between order statistics.
func quantileOf(ws []windowStats, f func(windowStats) float64, q float64) float64 {
	if len(ws) == 0 {
		return 0
	}
	xs := make([]float64, len(ws))
	for i, w := range ws {
		xs[i] = f(w)
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[i]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func medianEp(eps []episode, f func(episode) time.Duration) float64 {
	xs := make([]float64, len(eps))
	for i, e := range eps {
		xs[i] = f(e).Seconds() * 1e3
	}
	return median(xs)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTicks is the host's aggregate CPU time from /proc/stat, in ticks:
// all of it, and the part stolen by the hypervisor (time this machine's
// virtual CPUs wanted to run but did not, which slows every timing the
// way a busy neighbour does).
type cpuTicks struct{ steal, total uint64 }

func cpuNow() cpuTicks {
	var t cpuTicks
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

func (t cpuTicks) share() float64 { return ratio(float64(t.steal), float64(t.total)) }
