package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// function, or a phase that groups such calls.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for the root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

// spans keeps the traced run's spans in a buffer allocated up front, so
// recording allocates nothing and never blocks; spans beyond its
// capacity are counted and dropped. The slot a begin returns belongs to
// the calling goroutine until its end. A nil *spans records nothing,
// which is how untraced runs skip it.
type spans struct {
	epoch   time.Time
	buf     []span
	next    atomic.Int32
	dropped atomic.Int64
}

const spanCap = 1 << 16

func newSpans() *spans { return &spans{epoch: time.Now(), buf: make([]span, spanCap)} }

// begin opens a span under parent and returns its id, or -1 when the
// recorder is off or full.
func (s *spans) begin(name string, parent int32) int32 {
	if s == nil {
		return -1
	}
	id := s.next.Add(1) - 1
	if int(id) >= len(s.buf) {
		s.dropped.Add(1)
		return -1
	}
	s.buf[id] = span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(s.epoch))}
	return id
}

func (s *spans) end(id int32) {
	if s == nil || id < 0 {
		return
	}
	s.buf[id].End = int64(time.Since(s.epoch))
}

// write stores the spans as JSON lines in dir and returns the file's
// path. Call it once every goroutine that recorded has joined.
func (s *spans) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	n := min(int(s.next.Load()), len(s.buf))
	for i := 0; i < n; i++ {
		if err := enc.Encode(s.buf[i]); err != nil {
			f.Close()
			return "", fmt.Errorf("spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	return path, nil
}
