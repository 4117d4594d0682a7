package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"consensusinside/internal/metrics"
	"consensusinside/internal/trace"
)

// rounds is how many times a run repeats its measuring sequence: a
// fresh service's set-up, saturated windows, a heap reading,
// single-caller windows and one failover episode. Spreading each
// metric's samples over the whole run, rather than measuring it in one
// stretch, keeps a few seconds of interference from a neighbour on the
// host from moving a run's median.
const rounds = 8

// run runs one workload once. It prints the health line and returns the
// result for the last line.
func run(s spec, o options) (result, error) {
	b := &bench{spec: s, in: genInputs(o.seed, s.readShare), traced: o.trace}
	b.model = newModel(len(b.in.keys))
	traceInterval := 0
	if o.trace {
		b.sp = newSpans()
		traceInterval = traceEvery
	}
	b.root = b.sp.begin("run", -1)

	// Each round's saturated and single-caller phases take an equal share
	// of --seconds.
	per := time.Duration(o.seconds * float64(time.Second) / (2 * rounds))
	satWindows := max(2, int(per/window))
	satWindows -= satWindows % 2
	c1Windows := max(1, int(per/singleWindow))
	// The windows' histograms are allocated before the baseline heap
	// reading, so heap_mb counts none of the benchmark's own records.
	wins := make([]windowStats, 0, rounds*satWindows)
	c1 := make([]hist, 0, rounds*c1Windows)

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	baseHeap := float64(ms.HeapAlloc)

	defer func() {
		if b.kv != nil {
			b.kv.Close()
		}
	}()

	var (
		heaps          []float64
		eps            []episode
		wire           metrics.WireStats
		cmds, batches  int64
		local, fallbks int64
		outside        int64 // transport reconnects outside fault episodes
		stealTicks     cpuTicks
		stages         []traceHists
		setups         []float64
		nextKey        int
	)
	for r := 0; r < rounds; r++ {
		round := b.sp.begin("round", b.root)
		// Every round sets up a service of its own. Set-up is timed in
		// every round, and every episode is the first takeover of its
		// service: 1Paxos cannot survive the crash of a replica that is
		// both leader and active acceptor, and the bridge's retry
		// rotation hands leadership to the acceptor on a service's
		// second takeover.
		id := b.sp.begin("setup", round)
		start := time.Now()
		if err := b.start(traceInterval, phSetup); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(start).Seconds())
		b.sp.end(id)

		w0, bs0, rs0, steal0 := b.kv.WireStats(), b.kv.BatchStats(), b.kv.ReadStats(), cpuNow()
		wins = append(wins, b.saturated(satWindows, round)...)
		w1, bs1, rs1, steal1 := b.kv.WireStats(), b.kv.BatchStats(), b.kv.ReadStats(), cpuNow()
		wire.Merge(w1.Sub(w0))
		cmds, batches = cmds+bs1.Commands()-bs0.Commands(), batches+bs1.Batches()-bs0.Batches()
		local, fallbks = local+rs1.LocalReads-rs0.LocalReads, fallbks+rs1.Fallbacks-rs0.Fallbacks
		stealTicks.steal, stealTicks.total = stealTicks.steal+steal1.steal-steal0.steal, stealTicks.total+steal1.total-steal0.total
		if o.trace {
			var h traceHists
			h.stages, h.total = b.kv.Tracer().Histograms()
			stages = append(stages, h)
		}

		heaps = append(heaps, b.heapFloor(round)-baseHeap)
		c1 = append(c1, b.single(c1Windows, round)...)

		outside += b.kv.WireStats().Reconnects - w0.Reconnects
		ep, err := b.episode(round, &nextKey)
		b.sp.end(round)
		if err != nil {
			return result{}, fmt.Errorf("episode %d: %w", r, err)
		}
		eps = append(eps, ep)
	}
	if o.corruptModel {
		b.model.acked(0, b.model.next(0))
	}
	b.readback(b.root)
	b.sp.end(b.root)

	res := result{Correct: b.mismatches == 0, Metrics: map[string]metric{}}
	for _, c := range b.phases {
		res.Attempted += c.Attempted
		res.Failed += c.Failed
	}
	untraced, traced := splitWindows(wins)
	var c1all hist
	c1p50 := make([]float64, len(c1))
	for i := range c1 {
		c1all.merge(&c1[i])
		c1p50[i] = c1[i].quantile(0.5)
	}
	opsPerSec := func(w windowStats) float64 { return w.opsPerSec }
	m := res.Metrics
	if !o.trace {
		m["setup_s"] = metric{median(setups), "s"}
		// The saturated metrics come from the quieter quarter of the
		// windows: interference from the host only ever slows a window,
		// and on a shared 2-core host the window median moved up to 24 %
		// from run to run.
		m["ops_per_s"] = metric{quantileOf(untraced, opsPerSec, 0.75), "op/s"}
		m["p50_us"] = metric{quantileOf(untraced, func(w windowStats) float64 { return w.lat.quantile(0.50) }, 0.25), "us"}
		m["p90_us"] = metric{quantileOf(untraced, func(w windowStats) float64 { return w.lat.quantile(0.90) }, 0.25), "us"}
		m["c1_p50_us"] = metric{c1all.quantile(0.5), "us"}
		m["cpu_us_per_op"] = metric{quantileOf(untraced, func(w windowStats) float64 { return w.cpu.Seconds() * 1e6 / float64(w.ops) }, 0.5), "us"}
		m["heap_mb"] = metric{median(heaps) / (1 << 20), "MiB"}
		m["unavail_ms"] = metric{medianEp(eps, func(e episode) time.Duration { return e.unavail }), "ms"}
	} else {
		if err := b.probes(m); err != nil {
			return result{}, err
		}
		// Each stage's histogram holds the time from the previous stage
		// to it, so the first stage, enqueue, has none: the wait from
		// enqueue to admission is trace.propose_p50_us.
		var merged [trace.NumStages]metrics.Histogram
		var total metrics.Histogram
		for _, h := range stages {
			for i := range h.stages {
				merged[i].Merge(h.stages[i])
			}
			total.Merge(h.total)
		}
		for i := trace.StagePropose; i < trace.NumStages; i++ {
			m["trace."+i.String()+"_p50_us"] = metric{usOf(merged[i].Percentile(50)), "us"}
		}
		m["trace.total_p50_us"] = metric{usOf(total.Percentile(50)), "us"}
		sat := b.phases[phSaturated]
		satOps := float64(sat.Attempted)
		var reconnects, restores, streamed int64
		for _, e := range eps {
			reconnects, restores, streamed = reconnects+e.reconnects, restores+e.restores, streamed+e.streamed
		}
		m["kv.cmds_per_instance"] = metric{ratio(float64(cmds), float64(batches)), "cmd"}
		m["wire.frames_per_op"] = metric{ratio(float64(wire.FramesOut), satOps), "frame"}
		m["wire.bytes_per_op"] = metric{ratio(float64(wire.BytesOut), satOps), "B"}
		m["wire.frames_per_flush"] = metric{ratio(float64(wire.FramesOut), float64(wire.Flushes)), "frame"}
		m["wire.reconnects"] = metric{float64(reconnects), "count"}
		m["read.local_share"] = metric{ratio(float64(local), float64(sat.Gets)), "ratio"}
		m["read.fallbacks_per_kop"] = metric{ratio(float64(fallbks), satOps/1e3), "count"}
		m["snap.restores"] = metric{float64(restores), "count"}
		m["snap.entries_streamed"] = metric{float64(streamed), "count"}
		m["rejoin_ms"] = metric{medianEp(eps, func(e episode) time.Duration { return e.rejoin }), "ms"}
		m["fail.takeover_ms"] = metric{medianEp(eps, func(e episode) time.Duration { return e.takeover }), "ms"}
		m["fail.retarget_ms"] = metric{medianEp(eps, func(e episode) time.Duration { return e.unavail - e.takeover }), "ms"}
		var allocs, gcs, ops float64
		for _, w := range untraced {
			allocs, gcs, ops = allocs+float64(w.allocs), gcs+float64(w.gcs), ops+float64(w.ops)
		}
		m["go.alloc_bytes_per_op"] = metric{ratio(allocs, ops), "B"}
		m["go.gc_per_kop"] = metric{ratio(gcs, ops/1e3), "count"}
		m["trace.overhead"] = metric{ratio(quantileOf(traced, opsPerSec, 0.5), quantileOf(untraced, opsPerSec, 0.5)), "ratio"}
	}

	phases := map[string]counts{}
	for i, c := range b.phases {
		phases[phaseNames[i]] = c
	}
	winRates := make([]int, len(wins))
	for i, w := range wins {
		winRates[i] = int(w.opsPerSec)
	}
	var late time.Duration
	var epMs [][3]float64
	for _, e := range eps {
		late = max(late, e.lateness)
		epMs = append(epMs, [3]float64{e.unavail.Seconds() * 1e3, e.takeover.Seconds() * 1e3, e.rejoin.Seconds() * 1e3})
	}
	health := map[string]any{
		"workload": s.name, "seed": o.seed, "trace": o.trace, "host": hostStamp(),
		"phases":                              phases,
		"mismatches":                          b.mismatches,
		"reconnects_outside_episodes":         outside,
		"stream_lateness_ms":                  late.Seconds() * 1e3,
		"saturated_cpu_steal_share":           stealTicks.share(),
		"window_ops_per_s":                    winRates,
		"c1_window_p50_us":                    c1p50,
		"heap_mb_samples":                     scale(heaps, 1.0/(1<<20)),
		"episodes_unavail_takeover_rejoin_ms": epMs,
	}
	if b.firstBad != "" {
		health["first_mismatch"] = b.firstBad
	}
	if o.trace {
		path, err := b.sp.write(outDir(), fmt.Sprintf("spans-%s.jsonl", s.name))
		if err != nil {
			return result{}, err
		}
		health["spans"] = path
		health["spans_dropped"] = b.sp.dropped.Load()
	}
	line, err := json.Marshal(map[string]any{"health": health})
	if err != nil {
		return result{}, err
	}
	fmt.Println(string(line))
	return res, nil
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// traceHists is one service's tracer histograms: per-stage deltas and
// enqueue-to-reply totals.
type traceHists struct {
	stages [trace.NumStages]*metrics.Histogram
	total  *metrics.Histogram
}

func usOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
