package main

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"consensusinside/internal/obs"
)

const (
	streamEvery = time.Millisecond       // the open-loop stream sends one Put per interval
	streamConc  = 64                     // goroutines the stream's requests run on
	quiet       = 500 * time.Millisecond // idle time before a crash: above the bridge's 400 ms retry period
	settle      = 50 * time.Millisecond  // after the first commit, before the restart
	eventWait   = 20 * time.Second       // give up on an event after this long
)

// episode is what one crash/restart of the leader measured.
type episode struct {
	unavail  time.Duration // crash until the first request due after it commits
	takeover time.Duration // crash until a new leader's leader-change event
	rejoin   time.Duration // RestartReplica until the replica's recovery-complete event
	lateness time.Duration // how far behind its schedule the stream's generator fell

	reconnects, restores, streamed int64 // transport and snapshot counters over the episode
}

// stream is the paced open-loop Put stream of one episode, started at
// the crash. Request i is due at start+i*streamEvery whatever happened
// to earlier requests, and is timed from when it was due.
type stream struct {
	b       *bench
	start   time.Time
	done    []atomic.Int64 // completion of request i, in ns since start; 0 while pending
	stop    chan struct{}
	wg      sync.WaitGroup
	sent    atomic.Int64
	late    atomic.Int64 // the generator's worst lateness, in ns
	counts  [streamConc]counts
	nextKey *int // the keyspace cursor shared across episodes
}

// maxStream bounds the requests of one episode (and sizes the stream's
// completion table): an episode far longer than eventWait has failed.
const maxStream = int(3 * eventWait / streamEvery)

func (b *bench) startStream(nextKey *int) *stream {
	s := &stream{b: b, start: time.Now(), done: make([]atomic.Int64, maxStream), stop: make(chan struct{}), nextKey: nextKey}
	// Sized so the generator never blocks on a stall shorter than the
	// whole episode: requests due during an outage wait here, already
	// counted as late from their due time.
	reqs := make(chan int, maxStream)
	for w := 0; w < streamConc; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for i := range reqs {
				key := (*nextKey + i) % len(b.in.keys)
				b.put(key, &s.counts[w])
				s.done[i].Store(int64(time.Since(s.start)))
			}
		}()
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer close(reqs)
		for i := 0; i < maxStream; i++ {
			due := s.start.Add(time.Duration(i) * streamEvery)
			select {
			case <-s.stop:
				return
			case <-time.After(time.Until(due)):
			}
			if late := int64(time.Since(due)); late > s.late.Load() {
				s.late.Store(late)
			}
			reqs <- i
			s.sent.Add(1)
		}
	}()
	return s
}

// finish stops the generator, waits for every request it sent, and
// advances the shared key cursor past them.
func (s *stream) finish() {
	close(s.stop)
	s.wg.Wait()
	*s.nextKey = (*s.nextKey + int(s.sent.Load())) % len(s.b.in.keys)
	s.b.addCounts(phFailover, s.counts[:])
}

// committed waits until request i has committed and reports when, as
// time since the stream started.
func (s *stream) committed(i int) (time.Duration, error) {
	deadline := time.Now().Add(eventWait)
	for time.Now().Before(deadline) {
		if d := s.done[i].Load(); d != 0 {
			return time.Duration(d), nil
		}
		time.Sleep(200 * time.Microsecond)
	}
	return 0, fmt.Errorf("stream request %d did not commit within %v", i, eventWait)
}

// waitEvent polls the service's event log for the first event after t
// that match accepts.
func (b *bench) waitEvent(after time.Time, match func(obs.Event) bool) (obs.Event, error) {
	deadline := time.Now().Add(eventWait)
	for time.Now().Before(deadline) {
		for _, e := range b.kv.Events().Tail(0) {
			if e.Wall.After(after) && match(e) {
				return e, nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	return obs.Event{}, fmt.Errorf("no matching event within %v", eventWait)
}

// leader reports the replica that most recently announced a takeover;
// 1Paxos's boot leader, replica 0, announces itself the same way.
func (b *bench) leader() int {
	leader := 0
	for _, e := range b.kv.Events().Tail(0) {
		if e.Kind == "leader-change" {
			leader = int(e.Node)
		}
	}
	return leader
}

func (b *bench) episode(parent int32, nextKey *int) (episode, error) {
	var ep episode
	id := b.sp.begin("episode", parent)
	defer b.sp.end(id)
	victim := b.leader()
	// Let the bridge's write-retry scan go idle, so that the first
	// request after the crash arms it afresh and every episode sees the
	// same retry phase.
	time.Sleep(quiet)
	w0, s0 := b.kv.WireStats(), b.kv.SnapshotStats()

	crash := time.Now()
	cs := b.sp.begin("kv.CrashReplica", id)
	err := b.kv.CrashReplica(victim)
	b.sp.end(cs)
	if err != nil {
		return ep, err
	}
	s := b.startStream(nextKey)
	at, err := s.committed(0)
	if err != nil {
		s.finish()
		return ep, err
	}
	ep.unavail = s.start.Sub(crash) + at
	lc, err := b.waitEvent(crash, func(e obs.Event) bool { return e.Kind == "leader-change" })
	if err != nil {
		s.finish()
		return ep, fmt.Errorf("leader-change after crashing %d: %w", victim, err)
	}
	ep.takeover = lc.Wall.Sub(crash)

	time.Sleep(settle)
	restart := time.Now()
	rs := b.sp.begin("kv.RestartReplica", id)
	err = b.kv.RestartReplica(victim)
	b.sp.end(rs)
	if err != nil {
		s.finish()
		return ep, err
	}
	rec, err := b.waitEvent(restart, func(e obs.Event) bool {
		return e.Kind == "recovery" && int(e.Node) == victim && strings.HasPrefix(e.Detail, "recovery complete")
	})
	if err != nil {
		s.finish()
		return ep, fmt.Errorf("rejoin of %d: %w", victim, err)
	}
	ep.rejoin = rec.Wall.Sub(restart)
	time.Sleep(settle)
	s.finish()
	ep.lateness = time.Duration(s.late.Load())
	b.readback(id)
	w1, s1 := b.kv.WireStats(), b.kv.SnapshotStats()
	ep.reconnects = w1.Reconnects - w0.Reconnects
	ep.restores = s1.Restores - s0.Restores
	ep.streamed = s1.EntriesStreamed - s0.EntriesStreamed
	return ep, nil
}
