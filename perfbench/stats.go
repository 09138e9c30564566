package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"provex/internal/core"
	"provex/internal/gen"
	"provex/internal/metrics"
	"provex/internal/promtext"
	"provex/internal/tweet"
)

// stream generates the workload's input: the first n messages of the
// seeded synthetic stream.
func stream(seed int64, n int) []*tweet.Message {
	cfg := gen.DefaultConfig()
	cfg.Seed = seed
	return gen.New(cfg).Generate(n)
}

// liveHeap forces a full collection and returns the live heap bytes.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// collector holds garbage collection off the timed sections of a
// quiescent replay: automatic collection is paused, and between
// requests the heap is collected whenever it has grown by gcSlack.
type collector struct {
	percent int
	limit   uint64
}

const gcSlack = 128 << 20

func pauseCollector() *collector {
	gc := &collector{percent: debug.SetGCPercent(-1)}
	gc.collect()
	return gc
}

func (gc *collector) collect() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc.limit = ms.HeapAlloc + gcSlack
}

// between collects if the heap has outgrown the slack.
func (gc *collector) between() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > gc.limit {
		gc.collect()
	}
}

func (gc *collector) resume() { debug.SetGCPercent(gc.percent) }

// memDelta tracks allocation and GC pause totals over a phase.
type memDelta struct{ alloc, pauseNs, numGC uint64 }

func memNow() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{ms.TotalAlloc, ms.PauseTotalNs, uint64(ms.NumGC)}
}

// reportRuntime sets the allocation and GC pause per-layer metrics for
// the phase since m0 that handled msgs messages.
func reportRuntime(rep *report, m0 memDelta, msgs int) {
	m1 := memNow()
	rep.setLayer("runtime.alloc_bytes_per_msg", float64(m1.alloc-m0.alloc)/float64(max(msgs, 1)), "B")
	pause := 0.0
	if n := m1.numGC - m0.numGC; n > 0 {
		pause = float64(m1.pauseNs-m0.pauseNs) / float64(n) / 1e6
	}
	rep.setLayer("runtime.gc_pause_ms", pause, "ms")
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// scrape is a parsed read of a metrics registry.
type scrape map[string]float64

func readRegistry(reg *metrics.Registry) (scrape, error) {
	var buf bytes.Buffer
	if err := reg.Expose(&buf); err != nil {
		return nil, err
	}
	m, err := promtext.Parse(&buf)
	return scrape(m), err
}

// sum adds every series of family name whose label block contains
// each of the given `k="v"` pairs.
func (s scrape) sum(name string, labels ...string) float64 {
	total := 0.0
	for key, v := range s {
		lb := ""
		if i := strings.IndexByte(key, '{'); i >= 0 {
			if key[:i] != name {
				continue
			}
			lb = key[i:]
		} else if key != name {
			continue
		}
		ok := true
		for _, l := range labels {
			ok = ok && strings.Contains(lb, l)
		}
		if ok {
			total += v
		}
	}
	return total
}

// ratio divides and returns 0 for an empty denominator.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// reportEngineLayers sets the per-layer metrics every stack exports
// through its registry: Figure 13's stage timers and pruning counters,
// the WAL's append and fsync instruments, and the service checkpoint
// timer. Stage times are per observed insert.
func reportEngineLayers(rep *report, s scrape) {
	stage := func(name string) (float64, float64) {
		l := `stage="` + name + `"`
		return s.sum("provex_ingest_stage_seconds_sum", l), s.sum("provex_ingest_stage_seconds_count", l)
	}
	prepSum, prepN := stage("prepare")
	matchSum, inserts := stage("match")
	placeSum, _ := stage("place")
	rep.setLayer("tokenizer.prepare_us_per_msg", 1e6*ratio(prepSum, prepN), "us")
	rep.setLayer("core.match_us_per_msg", 1e6*ratio(matchSum, inserts), "us")
	rep.setLayer("core.place_us_per_msg", 1e6*ratio(placeSum, inserts), "us")
	rep.setLayer("core.place_nodes_scored_per_msg", ratio(s.sum("provex_place_nodes_scored_total"), inserts), "count")
	rep.setLayer("core.match_pruned_per_msg", ratio(s.sum("provex_match_candidates_pruned_total"), inserts), "count")
	appends := s.sum("provex_wal_append_seconds_count")
	fsyncs := s.sum("provex_wal_fsync_seconds_count")
	rep.setLayer("wal.append_us_per_msg", 1e6*ratio(s.sum("provex_wal_append_seconds_sum"), appends), "us")
	rep.setLayer("wal.fsync_ms", 1e3*ratio(s.sum("provex_wal_fsync_seconds_sum"), fsyncs), "ms")
	rep.setLayer("wal.fsyncs_per_msg", ratio(fsyncs, appends), "count")
	if n := s.sum("provex_pipeline_checkpoint_seconds_count"); n > 0 {
		rep.setLayer("pipeline.checkpoint_ms", 1e3*s.sum("provex_pipeline_checkpoint_seconds_sum")/n, "ms")
	}
	refineSum, _ := stage("refine")
	rep.addExtra("core.refine_us_per_msg", 1e6*ratio(refineSum, inserts), "us")
	rep.addExtra("pool.evictions_per_msg", ratio(s.sum("provex_pool_evictions_total"), inserts), "count")
}

// sameState compares the parts of two snapshots that define the
// provenance output: messages, bundles, edges and connection types.
func sameState(a, b core.Stats) error {
	if a.Messages != b.Messages || a.BundlesCreated != b.BundlesCreated || a.BundlesLive != b.BundlesLive ||
		a.EdgesCreated != b.EdgesCreated || a.MessagesInMemory != b.MessagesInMemory {
		return fmt.Errorf("messages %d/%d, bundles created %d/%d, live %d/%d, edges %d/%d, in memory %d/%d",
			a.Messages, b.Messages, a.BundlesCreated, b.BundlesCreated, a.BundlesLive, b.BundlesLive,
			a.EdgesCreated, b.EdgesCreated, a.MessagesInMemory, b.MessagesInMemory)
	}
	for k, v := range a.ConnCounts {
		if b.ConnCounts[k] != v {
			return fmt.Errorf("%s connections %d/%d", k, v, b.ConnCounts[k])
		}
	}
	if len(a.ConnCounts) != len(b.ConnCounts) {
		return fmt.Errorf("connection types %d/%d", len(a.ConnCounts), len(b.ConnCounts))
	}
	return nil
}

func medianDur(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// setups builds a stack n times and returns the median construction
// time and the last stack; earlier ones are closed.
func setups[T any](n int, build func(i int) (T, error), closeFn func(T)) (time.Duration, T, error) {
	var times []time.Duration
	var last T
	for i := 0; i < n; i++ {
		start := time.Now()
		st, err := build(i)
		if err != nil {
			return 0, last, err
		}
		times = append(times, time.Since(start))
		if i < n-1 {
			closeFn(st)
		}
		last = st
	}
	return medianDur(times), last, nil
}
