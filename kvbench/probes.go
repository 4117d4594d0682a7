package main

import (
	"fmt"
	"time"

	"consensusinside/internal/msg"
	"consensusinside/internal/queue"
	"consensusinside/internal/rsm"
	"consensusinside/internal/runtime"
	"consensusinside/internal/snapshot"
)

// The per-layer probes time one layer at a time through its public
// functions, outside the service. Each repeats its measurement
// probeReps times and reports the median.
const (
	probeReps  = 5
	batchLen   = 16 // commands per batch: the default pipeline window, which adaptive batching fills under load
	queueDrain = 64 // messages per SPSC drain
)

// probe times fn probeReps times under a span each and returns the
// median of what fn reports.
func (b *bench) probe(name string, parent int32, fn func() float64) float64 {
	id := b.sp.begin(name, parent)
	defer b.sp.end(id)
	xs := make([]float64, probeReps)
	for i := range xs {
		rep := b.sp.begin(name+".rep", id)
		xs[i] = fn()
		b.sp.end(rep)
	}
	return median(xs)
}

// queueHop reports the cost per message of moving messages through an
// SPSC queue between two goroutines, in runs of queueDrain.
func queueHop() float64 {
	const total = 1 << 20
	q := queue.NewSPSC[msg.Message](1024)
	src := make([]msg.Message, queueDrain)
	for i := range src {
		src[i] = msg.ClientReply{Seq: uint64(i)}
	}
	done := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(done)
		buf := make([]msg.Message, queueDrain)
		for got := 0; got < total; {
			got += q.DequeueInto(buf)
		}
	}()
	for sent := 0; sent < total; {
		n := q.TryEnqueueBatch(src[:min(queueDrain, total-sent)])
		sent += n
	}
	<-done
	return float64(time.Since(start).Nanoseconds()) / total
}

type ping struct{}

func (ping) Kind() string { return "kvbench_ping" }

// runtimeRoundTrip reports the time of one message round trip between
// two handlers of an InProc runtime, averaged over a run of round trips
// that the benchmark starts with one Inject.
func runtimeRoundTrip() float64 {
	const trips = 2000
	done := make(chan time.Duration, 1)
	var left int
	var start time.Time
	h0 := runtime.HandlerFunc{OnReceive: func(ctx runtime.Context, from msg.NodeID, m msg.Message) {
		if from == msg.Nobody {
			left, start = trips, time.Now()
		} else if left--; left == 0 {
			done <- time.Since(start)
			return
		}
		ctx.Send(1, m)
	}}
	h1 := runtime.HandlerFunc{OnReceive: func(ctx runtime.Context, from msg.NodeID, m msg.Message) {
		ctx.Send(from, m)
	}}
	c := runtime.NewInProcCluster([]runtime.Handler{h0, h1})
	defer c.Stop()
	c.Inject(msg.Nobody, 0, ping{})
	return float64((<-done).Nanoseconds()) / 1e3 / trips
}

// batchOf builds a batchLen-command Put batch over the workload's keys,
// starting at key k.
func (b *bench) batchOf(k int) []msg.BatchEntry {
	entries := make([]msg.BatchEntry, batchLen)
	for i := range entries {
		key := (k + i) % len(b.in.keys)
		entries[i] = msg.BatchEntry{Seq: uint64(k + i + 1), Cmd: msg.Command{Op: msg.OpPut, Key: b.in.keys[key], Val: b.in.values[key][0]}}
	}
	return entries
}

// rsmApply reports the cost per command of learning and applying
// batchLen-command values in order, over the whole keyspace.
func (b *bench) rsmApply() float64 {
	n := len(b.in.keys) / batchLen * 4
	values := make([]msg.Value, n)
	for i := range values {
		batch := b.batchOf(i * batchLen)
		values[i] = msg.Value{Client: 3, Seq: batch[0].Seq, Batch: batch}
	}
	log := rsm.NewLog(rsm.NewKV())
	start := time.Now()
	for i, v := range values {
		log.Learn(int64(i), v)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n*batchLen)
}

// codecCost reports the encode and decode time of one message through
// the envelope codec, and its encoded size.
func codecCost(m msg.Message) (encNs, decNs, bytes float64, err error) {
	const reps = 20000
	buf, err := msg.AppendEnvelope(nil, 1, m)
	if err != nil {
		return 0, 0, 0, err
	}
	start := time.Now()
	for i := 0; i < reps; i++ {
		buf, _ = msg.AppendEnvelope(buf[:0], 1, m)
	}
	encNs = float64(time.Since(start).Nanoseconds()) / reps
	start = time.Now()
	for i := 0; i < reps; i++ {
		if _, _, err := msg.DecodeEnvelope(buf); err != nil {
			return 0, 0, 0, fmt.Errorf("decode %s: %w", m.Kind(), err)
		}
	}
	decNs = float64(time.Since(start).Nanoseconds()) / reps
	return encNs, decNs, float64(len(buf)), nil
}

// snapshotCost reports the time to capture and encode a snapshot of the
// workload's whole state, and the snapshot's size.
func (b *bench) snapshotCost() (ms, bytes float64) {
	kv := rsm.NewKV()
	for k := range b.in.keys {
		kv.Apply(msg.Value{Cmd: msg.Command{Op: msg.OpPut, Key: b.in.keys[k], Val: b.in.values[k][0]}})
	}
	var size int
	ms = median(repeat(probeReps, func() float64 {
		start := time.Now()
		size = len(snapshot.Encode(snapshot.Snapshot{LastApplied: int64(len(b.in.keys)), State: kv.SnapshotState()}))
		return float64(time.Since(start).Nanoseconds()) / 1e6
	}))
	return ms, float64(size)
}

func repeat(n int, fn func() float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = fn()
	}
	return xs
}

// probes runs every per-layer probe and adds its metrics to out.
func (b *bench) probes(out map[string]metric) error {
	id := b.sp.begin("probes", b.root)
	defer b.sp.end(id)
	out["queue.hop_ns"] = metric{b.probe("queue.SPSC", id, queueHop), "ns"}
	out["runtime.roundtrip_us"] = metric{b.probe("runtime.InProcCluster", id, runtimeRoundTrip), "us"}
	out["rsm.apply_ns_per_cmd"] = metric{b.probe("rsm.Log.Learn", id, b.rsmApply), "ns"}

	batch := b.batchOf(0)
	replies := make([]msg.ClientReply, batchLen)
	for i, e := range batch {
		replies[i] = msg.ClientReply{Seq: e.Seq, Instance: 1 << 20, OK: true, Result: e.Cmd.Val}
	}
	for _, c := range []struct {
		name string
		m    msg.Message
	}{
		{"accept16", msg.AcceptRequest{Instance: 1 << 20, PN: 7, Value: msg.Value{Client: 3, Seq: batch[0].Seq, Ack: batch[0].Seq, Batch: batch}}},
		{"replies16", msg.ClientReplyBatch{Replies: replies}},
	} {
		var enc, dec, size []float64
		cid := b.sp.begin("msg.Envelope."+c.name, id)
		for r := 0; r < probeReps; r++ {
			e, d, n, err := codecCost(c.m)
			if err != nil {
				return err
			}
			enc, dec, size = append(enc, e), append(dec, d), append(size, n)
		}
		b.sp.end(cid)
		out["codec."+c.name+".encode_ns"] = metric{median(enc), "ns"}
		out["codec."+c.name+".decode_ns"] = metric{median(dec), "ns"}
		out["codec."+c.name+".bytes"] = metric{median(size), "B"}
	}

	sid := b.sp.begin("snapshot.Encode", id)
	ms, size := b.snapshotCost()
	b.sp.end(sid)
	out["snap.encode_ms"] = metric{ms, "ms"}
	out["snap.bytes"] = metric{size, "B"}
	return nil
}
