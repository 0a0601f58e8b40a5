package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// spanRecorder keeps the traced run's spans in memory: one per call the
// benchmark makes into a layer, named "<layer>.<call>". Spans are recorded
// from the benchmark's own code around public calls; the program itself is
// not instrumented. A nil recorder (the untraced run) records nothing and
// reads no clock.
type spanRecorder struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

// span is one recorded call: times are nanoseconds since the recorder's
// start, parent is 0 for a root.
type span struct {
	id, parent int64
	name       string
	start, end int64
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

// openSpan is a span that has started but not ended.
type openSpan struct {
	r      *spanRecorder
	id     int64
	parent int64
	name   string
	start  int64
}

// start opens a span under parent (0 for a root).
func (r *spanRecorder) start(name string, parent int64) openSpan {
	if r == nil {
		return openSpan{}
	}
	return openSpan{r: r, id: r.nextID.Add(1), parent: parent, name: name, start: int64(time.Since(r.t0))}
}

// end closes the span and returns its duration.
func (o openSpan) end() time.Duration {
	if o.r == nil {
		return 0
	}
	end := int64(time.Since(o.r.t0))
	o.r.mu.Lock()
	o.r.spans = append(o.r.spans, span{id: o.id, parent: o.parent, name: o.name, start: o.start, end: end})
	o.r.mu.Unlock()
	return time.Duration(end - o.start)
}

// layerOf is the layer a span name belongs to: the part before the dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each layer's self time: the sum over its spans of the
// span's duration minus the part of it that its child spans cover. Children
// may run concurrently (phase one of a translation runs on several
// goroutines), so the covered part is the union of their intervals.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[layerOf(s.name)] += time.Duration(s.end - s.start - covered(children[s.id]))
	}
	return out
}

// covered is the total length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, lo, hi int64
	for i, x := range iv {
		if i == 0 || x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
			continue
		}
		hi = max(hi, x[1])
	}
	return total + hi - lo
}

// byName returns the durations of every span with the given name, in
// microseconds.
func byName(spans []span, name string) samples {
	var out samples
	for _, s := range spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start)/1e3)
		}
	}
	return out
}

// under returns the spans whose parent is the given span.
func under(spans []span, parent int64) []span {
	var out []span
	for _, s := range spans {
		if s.parent == parent {
			out = append(out, s)
		}
	}
	return out
}

// write stores the spans, ordered by start, one per line as
// "id parent name start_ns end_ns".
func (r *spanRecorder) write(path string) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# id parent name start_ns end_ns (t0 %s)\n", r.t0.UTC().Format(time.RFC3339Nano))
	for _, s := range spans {
		fmt.Fprintf(w, "%d %d %s %d %d\n", s.id, s.parent, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// snapshot copies the recorded spans.
func (r *spanRecorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}
