package main

import (
	"bufio"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"provex/internal/bundle"
	"provex/internal/core"
	"provex/internal/fsx"
	"provex/internal/query"
	"provex/internal/server"
	"provex/internal/trending"
)

// span is one timed call into a layer. parent is the index of the
// enclosing span (-1 for none); spans of one request share req.
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	parent     int32
	req        int64
}

// tracer keeps spans in memory for the length of a run. A nil tracer
// records nothing, so untraced runs pay one branch per call site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int32, req int64) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: now, parent: parent, req: req})
	return int32(len(t.spans) - 1)
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = now
}

// durations returns every closed span's duration by name, and its self
// time: the duration minus what its child spans cover.
func (t *tracer) durations() (total, self map[string][]time.Duration) {
	total, self = map[string][]time.Duration{}, map[string][]time.Duration{}
	if t == nil {
		return total, self
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		d := s.end - s.start
		total[s.name] = append(total[s.name], d)
		self[s.name] = append(self[s.name], d-child[i])
	}
	return total, self
}

// byReq returns the duration of every span called name, keyed by
// request id.
func (t *tracer) byReq(name string) map[int64]time.Duration {
	out := map[int64]time.Duration{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.name == name {
			out[s.req] = s.end - s.start
		}
	}
	return out
}

// absorb appends other's spans, keeping their parent links.
func (t *tracer) absorb(other *tracer) {
	other.mu.Lock()
	defer other.mu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	shift := other.epoch.Sub(t.epoch)
	base := int32(len(t.spans))
	for _, s := range other.spans {
		s.start += shift
		s.end += shift
		if s.parent >= 0 {
			s.parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// writeCSV writes the spans as name,start_ns,end_ns,parent,req.
func (t *tracer) writeCSV(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	fsys := fsx.OS{}
	if err := fsys.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := fsys.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,start_ns,end_ns,parent,req")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d\n", s.name, s.start.Nanoseconds(), s.end.Nanoseconds(), s.parent, s.req)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedBackend is the server.Backend adapter of traced runs: it wraps
// each call into the backend in a span whose parent is the ServeHTTP
// span of the request being served. Clients send one request at a
// time, so the client sets that request before ServeHTTP and every
// backend call until the next one belongs to it.
type timedBackend struct {
	b   server.Backend
	tr  *tracer
	cur int32 // ServeHTTP span of the request being served
	req int64 // its request id
}

func newTimedBackend(b server.Backend, tr *tracer) *timedBackend {
	return &timedBackend{b: b, tr: tr, cur: -1, req: -1}
}

// serving sets the request the following backend calls belong to.
func (tb *timedBackend) serving(span int32, req int64) { tb.cur, tb.req = span, req }

func (tb *timedBackend) begin(name string) int32 { return tb.tr.begin(name, tb.cur, tb.req) }

func (tb *timedBackend) SearchMessages(q string, k int) []query.MessageHit {
	id := tb.begin("textindex.search")
	defer tb.tr.end(id)
	return tb.b.SearchMessages(q, k)
}

func (tb *timedBackend) SearchBundles(q string, k int) []query.BundleHit {
	id := tb.begin("query.search_bundles")
	defer tb.tr.end(id)
	return tb.b.SearchBundles(q, k)
}

func (tb *timedBackend) Bundle(id bundle.ID) (*bundle.Bundle, error) {
	sid := tb.begin("query.bundle")
	defer tb.tr.end(sid)
	return tb.b.Bundle(id)
}

func (tb *timedBackend) Snapshot() core.Stats {
	id := tb.begin("core.snapshot")
	defer tb.tr.end(id)
	return tb.b.Snapshot()
}

func (tb *timedBackend) Trending(k int) []trending.Topic {
	id := tb.begin("trending.detect")
	defer tb.tr.end(id)
	return tb.b.Trending(k)
}

// timingTransport is the follower's RoundTripper: it hands each
// request straight to the leader's repl.Source handler in process and,
// when traced, records a span per request.
type timingTransport struct {
	h  http.Handler
	tr *tracer

	mu       sync.Mutex
	firstWAL time.Time // guarded by mu
	req      int64     // guarded by mu
}

func (t *timingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	name := "repl.source" + r.URL.Path[len("/repl"):]
	t.mu.Lock()
	if r.URL.Path == "/repl/wal" && t.firstWAL.IsZero() {
		t.firstWAL = time.Now()
	}
	t.req++
	req := t.req
	t.mu.Unlock()
	id := t.tr.begin(name, -1, req)
	w := httptest.NewRecorder()
	t.h.ServeHTTP(w, r)
	t.tr.end(id)
	return w.Result(), nil
}

// firstWALAt reports when the follower first asked for WAL records —
// the end of its checkpoint bootstrap.
func (t *timingTransport) firstWALAt() time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.firstWAL
}

// quantile returns the q-quantile of ds by nearest rank.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(float64(len(s))*q-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
