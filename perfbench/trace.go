package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share req; parent is the index of the span that caused this
// one, or -1 for a root.
type span struct {
	name       string
	start, end int64 // ns since the recorder's epoch; end 0 while open
	parent     int32
	req        int64
}

// recorder keeps spans in memory for the traced run. A nil *recorder
// records nothing, which is how the untraced run pays only a nil check.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its index (-1 when not recording).
func (r *recorder) begin(name string, parent int32, req int64) int32 {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{name: name, start: now, parent: parent, req: req})
	r.mu.Unlock()
	return id
}

// beginAt is begin with an explicit start time (a request timed from
// when it was due rather than when it was sent).
func (r *recorder) beginAt(name string, parent int32, req int64, at time.Time) int32 {
	if r == nil {
		return -1
	}
	id := r.begin(name, parent, req)
	r.mu.Lock()
	r.spans[id].start = int64(at.Sub(r.epoch))
	r.mu.Unlock()
	return id
}

// end closes span id.
func (r *recorder) end(id int32) {
	if r == nil || id < 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id].end = now
	r.mu.Unlock()
}

// spanStats aggregates the closed spans of one name.
type spanStats struct {
	count  int
	total  time.Duration // sum of durations
	self   time.Duration // sum of self times
	durs   []float64     // durations in ns, sorted
	sorted bool
}

func (s *spanStats) p99() time.Duration {
	if !s.sorted {
		sort.Float64s(s.durs)
		s.sorted = true
	}
	return time.Duration(quantile(s.durs, 0.99))
}

// summarize groups closed spans by name. A span's self time is its
// duration minus the part of its interval covered by its children.
func (r *recorder) summarize() map[string]*spanStats {
	out := make(map[string]*spanStats)
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int32][]int32)
	for i, s := range r.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	for i, s := range r.spans {
		if s.end == 0 {
			continue
		}
		st := out[s.name]
		if st == nil {
			st = &spanStats{}
			out[s.name] = st
		}
		dur := s.end - s.start
		st.count++
		st.total += time.Duration(dur)
		st.durs = append(st.durs, float64(dur))
		st.self += time.Duration(dur - covered(r.spans, s, children[int32(i)]))
	}
	return out
}

// covered returns how many ns of parent's interval its children cover,
// counting overlapping children once.
func covered(all []span, parent span, kids []int32) int64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		c := all[k]
		if c.end == 0 {
			continue
		}
		a, b := max(c.start, parent.start), min(c.end, parent.end)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			sum += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		sum += curB - curA
	}
	return sum
}

// writeJSONL writes every span as one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	if r == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i, s := range r.spans {
		_ = enc.Encode(struct {
			ID     int    `json:"id"`
			Name   string `json:"name"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
			Parent int32  `json:"parent"`
			Req    int64  `json:"req"`
		}{i, s.name, s.start, s.end, s.parent, s.req})
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}
