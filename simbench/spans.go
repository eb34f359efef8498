package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, in seconds since the traced run
// began. Parent 0 is the root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// spanLog keeps a traced run's spans in memory until write.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) open(name string, parent int, start time.Time) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Start: start.Sub(l.epoch).Seconds()})
	return id
}

func (l *spanLog) close(id int, end time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].End = end.Sub(l.epoch).Seconds()
}

// add records a finished span.
func (l *spanLog) add(name string, parent int, start, end time.Time) int {
	id := l.open(name, parent, start)
	l.close(id, end)
	return id
}

// around records a span around fn.
func (l *spanLog) around(name string, parent int, fn func()) {
	id := l.open(name, parent, time.Now())
	fn()
	l.close(id, time.Now())
}

func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	l.mu.Lock()
	b, err := json.MarshalIndent(l.spans, "", " ")
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
