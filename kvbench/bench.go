package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	ci "consensusinside"
)

// spec is one workload: what the program is configured with and what
// mix the callers send.
type spec struct {
	name      string
	transport ci.TransportKind
	readMode  ci.ReadMode
	readShare float64
}

var workloads = []spec{
	{name: "inproc-write", transport: ci.InProc, readMode: ci.ReadConsensus},
	{name: "inproc-read90", transport: ci.InProc, readMode: ci.ReadLease, readShare: 0.9},
	{name: "tcp-failover", transport: ci.TCP, readMode: ci.ReadConsensus},
}

func lookupSpec(name string) (spec, bool) {
	for _, s := range workloads {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

const (
	replicas         = 3
	heapWait         = 2 * time.Second // give up waiting for every replica's snapshot after this long
	snapshotInterval = 1024            // instances between snapshots: keeps the log, and so the heap, bounded
	traceEvery       = 64              // KVConfig.TraceInterval of the traced run
	window           = 500 * time.Millisecond
	warmup           = 250 * time.Millisecond
	singleWindow     = 250 * time.Millisecond
	singleWarmup     = 512
	requestTimeout   = 30 * time.Second // far above any failover, so no request times out
)

// phase names index the health counters.
const (
	phSetup = iota
	phSaturated
	phSingle
	phHeap
	phFailover
	phReadback
	numPhases
)

var phaseNames = [numPhases]string{"setup", "saturated", "single", "heap", "failover", "readback"}

// counts is one goroutine's tally of operations; goroutines keep their
// own and the totals are summed after they join, so the hot loop shares
// no counter.
type counts struct {
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Gets      int64 `json:"gets"`
}

type bench struct {
	spec   spec
	in     *inputs
	model  *model
	kv     *ci.KV
	sp     *spans // nil unless traced
	root   int32
	traced bool

	phases [numPhases]counts

	mu         sync.Mutex
	mismatches int64
	firstBad   string
}

func (b *bench) config(traceInterval int) ci.KVConfig {
	return ci.KVConfig{
		Protocol:         ci.OnePaxos,
		Replicas:         replicas,
		Transport:        b.spec.transport,
		Pipeline:         ci.DefaultPipeline,
		BatchAdaptive:    true,
		SnapshotInterval: snapshotInterval,
		ReadMode:         b.spec.readMode,
		RequestTimeout:   requestTimeout,
		TraceInterval:    traceInterval,
	}
}

// mismatch records a read the model does not allow.
func (b *bench) mismatch(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.mismatches++
	if b.firstBad == "" {
		b.firstBad = fmt.Sprintf(format, args...)
	}
}

// put writes the key's next version and keeps the model in step.
func (b *bench) put(key int, c *counts) {
	v := b.model.next(key)
	c.Attempted++
	if err := b.kv.Put(b.in.keys[key], b.in.values[key][v]); err != nil {
		c.Failed++
		b.model.failed(key, v)
		return
	}
	b.model.acked(key, v)
}

// get reads key and checks the reply against the model.
func (b *bench) get(key int, c *counts) {
	c.Attempted++
	c.Gets++
	got, err := b.kv.Get(b.in.keys[key])
	if err != nil {
		c.Failed++
		return
	}
	if !b.model.matches(b.in, key, got) {
		b.mismatch("get %s returned %q, model holds %q", b.in.keys[key], got, b.in.values[key][b.model.entries[key].Load()&0xff])
	}
}

func (b *bench) do(caller int, o op, c *counts) {
	key := keyIndex(caller, int(o.slot))
	if o.get {
		b.get(key, c)
	} else {
		b.put(key, c)
	}
}

// parallel runs fn(caller) on every caller and waits for all of them.
func parallel(fn func(caller int)) {
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c)
		}()
	}
	wg.Wait()
}

func (b *bench) addCounts(ph int, cs []counts) {
	for _, c := range cs {
		b.phases[ph].Attempted += c.Attempted
		b.phases[ph].Failed += c.Failed
		b.phases[ph].Gets += c.Gets
	}
}

// start replaces the service with a fresh one and preloads every key
// with its first version, counting the preload under phase ph.
func (b *bench) start(traceInterval, ph int) error {
	if b.kv != nil {
		b.kv.Close()
		b.kv = nil
	}
	kv, err := ci.StartKV(b.config(traceInterval))
	if err != nil {
		return fmt.Errorf("start: %w", err)
	}
	b.kv = kv
	// The traced run traces only its saturated windows, which switch
	// tracing on and off themselves.
	kv.Tracer().SetInterval(0)
	for i := range b.model.entries {
		b.model.entries[i].Store(versions - 1) // the preload writes version 0
	}
	cs := make([]counts, callers)
	parallel(func(c int) {
		for slot := 0; slot < keysPerCaller; slot++ {
			b.put(keyIndex(c, slot), &cs[c])
		}
	})
	b.addCounts(ph, cs)
	return nil
}

// rusage reports the process's user+system CPU time.
func rusage() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// windowStats is what one measurement window of the saturated phase
// saw.
type windowStats struct {
	dur       time.Duration
	cpu       time.Duration
	ops       uint64
	lat       hist
	traced    bool
	allocs    uint64 // heap bytes allocated (traced run only)
	gcs       uint32 // GC cycles (traced run only)
	opsPerSec float64
}

// saturated runs the closed loop from every caller for n windows (n
// even), after a warm-up. In the traced run the windows
// alternate between tracing off and on, so tracing's cost is measured
// against the same service, and the Go runtime's allocation and GC
// counts are read at each boundary.
func (b *bench) saturated(n int, parent int32) []windowStats {
	wins := make([]windowStats, n)
	perCaller := make([][]hist, callers)
	for c := range perCaller {
		perCaller[c] = make([]hist, n)
	}
	cs := make([]counts, callers)
	var cur atomic.Int32
	cur.Store(-1) // warming up
	phase := b.sp.begin("saturated", parent)

	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ops, hs, cnt := b.in.ops[c], perCaller[c], &cs[c]
			for i := 0; ; i++ {
				w := cur.Load()
				if int(w) >= n {
					return
				}
				o := ops[i%len(ops)]
				var id int32 = -1
				if w >= 0 && b.sp != nil && i%traceEvery == 0 {
					id = b.sp.begin(opName(o), phase)
				}
				start := time.Now()
				b.do(c, o, cnt)
				lat := time.Since(start)
				b.sp.end(id)
				if w = cur.Load(); w >= 0 && int(w) < n {
					hs[w].record(lat)
				}
			}
		}()
	}

	time.Sleep(warmup)
	var ms runtime.MemStats
	readMem := func() {
		if b.traced {
			runtime.ReadMemStats(&ms)
		}
	}
	for w := 0; w < n; w++ {
		traced := b.traced && w%2 == 1
		if b.traced {
			interval := 0
			if traced {
				interval = traceEvery
			}
			b.kv.Tracer().SetInterval(interval)
		}
		readMem()
		allocs, gcs := ms.TotalAlloc, ms.NumGC
		cpu, start := rusage(), time.Now()
		cur.Store(int32(w))
		time.Sleep(window)
		wins[w].dur = time.Since(start)
		wins[w].cpu = rusage() - cpu
		readMem()
		wins[w].allocs, wins[w].gcs = ms.TotalAlloc-allocs, ms.NumGC-gcs
		wins[w].traced = traced
	}
	cur.Store(int32(n))
	wg.Wait()
	if b.traced {
		b.kv.Tracer().SetInterval(0)
	}
	b.sp.end(phase)
	b.addCounts(phSaturated, cs)
	for w := range wins {
		for c := range perCaller {
			wins[w].lat.merge(&perCaller[c][w])
		}
		wins[w].ops = wins[w].lat.n
		wins[w].opsPerSec = float64(wins[w].ops) / wins[w].dur.Seconds()
	}
	return wins
}

// heapFloor runs the closed loop from every caller until every replica
// has taken a snapshot, stops, and reports the live heap in bytes after
// a forced GC. Wherever load stops, the log holds anything from none to
// SnapshotInterval instances since the last snapshot, which swings the
// heap by megabytes; right after a snapshot it holds almost none, so
// the reading is the service's footprint with its log compacted.
func (b *bench) heapFloor(parent int32) float64 {
	id := b.sp.begin("heap", parent)
	defer b.sp.end(id)
	cs := make([]counts, callers)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; !stop.Load(); j++ {
				b.do(c, b.in.ops[c][j%opsPerCaller], &cs[c])
			}
		}()
	}
	snaps := b.kv.SnapshotStats().Snapshots
	deadline := time.Now().Add(heapWait)
	for b.kv.SnapshotStats().Snapshots-snaps < replicas && time.Now().Before(deadline) {
		time.Sleep(200 * time.Microsecond)
	}
	stop.Store(true)
	wg.Wait()
	b.addCounts(phHeap, cs)
	// Two cycles: the first moves sync.Pool contents to the victim
	// cache, the second frees them.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

func opName(o op) string {
	if o.get {
		return "kv.Get"
	}
	return "kv.Put"
}

// single runs caller 0's operation list from one goroutine, closed
// loop, for n windows of singleWindow after singleWarmup unrecorded
// operations.
func (b *bench) single(n int, parent int32) []hist {
	hs := make([]hist, n)
	var c counts
	phase := b.sp.begin("single", parent)
	ops := b.in.ops[0]
	for _, o := range ops[:singleWarmup] {
		b.do(0, o, &c)
	}
	start := time.Now()
	for i := 0; ; i++ {
		w := int(time.Since(start) / singleWindow)
		if w >= n {
			break
		}
		o := ops[i%len(ops)]
		var id int32 = -1
		if i%traceEvery == 0 {
			id = b.sp.begin(opName(o), phase)
		}
		t := time.Now()
		b.do(0, o, &c)
		hs[w].record(time.Since(t))
		b.sp.end(id)
	}
	b.sp.end(phase)
	b.addCounts(phSingle, []counts{c})
	return hs
}

// readback reads every key from its owner and compares it with the
// model, so an acknowledged write that was lost shows up.
func (b *bench) readback(parent int32) {
	id := b.sp.begin("readback", parent)
	cs := make([]counts, callers)
	parallel(func(c int) {
		for slot := 0; slot < keysPerCaller; slot++ {
			key := keyIndex(c, slot)
			cs[c].Attempted++
			cs[c].Gets++
			got, err := b.kv.Get(b.in.keys[key])
			if err != nil {
				cs[c].Failed++
				continue
			}
			if err := checkValue(got, c, slot); err != nil {
				b.mismatch("read-back: %v", err)
			} else if !b.model.matches(b.in, key, got) {
				b.mismatch("read-back of %s returned %q, model holds %q: an acknowledged write is lost",
					b.in.keys[key], got, b.in.values[key][b.model.entries[key].Load()&0xff])
			}
		}
	})
	b.sp.end(id)
	b.addCounts(phReadback, cs)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
