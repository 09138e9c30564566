// Service: the concurrent deployment shell around the sharded engine,
// mirroring pipeline.Service — one writer goroutine owns ingest (the
// stream is inherently sequential; the parallelism lives inside each
// round), any number of query goroutines read under a shared lock, and
// durable engines checkpoint on a message cadence plus at Stop.
//
// Queries fan out: search and trending ask every shard's processor and
// merge top-k under the serial tie order (score desc, ID asc); point
// lookups (Bundle, Trail) route straight to the owning shard via the
// bundle ID stride. The service registers the same provex_pipeline_*
// metric families as the serial service, so dashboards work unchanged
// whichever shell a deployment runs.

package shard

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"provex/internal/bundle"
	"provex/internal/core"
	"provex/internal/metrics"
	"provex/internal/pipeline"
	"provex/internal/query"
	"provex/internal/trending"
	"provex/internal/tweet"
)

// ErrClosed is returned by Submit after Stop.
var ErrClosed = errors.New("shard: service closed")

// ServiceOptions configure a Service.
type ServiceOptions struct {
	// Buffer is the ingest queue capacity; Submit blocks when full
	// (backpressure). 0 uses 1024.
	Buffer int
	// CheckpointEvery runs the coordinated checkpoint barrier after
	// every n committed messages; 0 disables periodic barriers (the
	// Stop barrier still runs for durable engines).
	CheckpointEvery int
	// Workers sets the concurrent prepare goroutines feeding the
	// writer. 0 defers to the engine config's Parallel.Workers; <=1
	// prepares inline.
	Workers int
}

// Service is the concurrent facade over a sharded Engine (or Durable —
// pass the embedded Engine plus the Durable for checkpointing). The
// engine must have been built with Options.Query set: queries need the
// per-shard processors.
type Service struct {
	opts ServiceOptions
	eng  *Engine
	dur  *Durable // nil for memory-only engines

	mu sync.RWMutex // guards all engine/shard state

	in     chan *tweet.Message
	done   chan struct{}
	stopMu sync.Mutex
	closed bool // guarded by stopMu

	// sinceCkpt is owned by the writer goroutine (run/maybeCheckpoint)
	// and never read elsewhere, so it needs no lock.
	sinceCkpt int
	ckptErr   error // guarded by stopMu
	ckptTimer metrics.StageTimer
}

// NewService wraps eng. dur may be nil (no durability); when set it
// must be the Durable whose embedded Engine eng is.
func NewService(eng *Engine, dur *Durable, opts ServiceOptions) (*Service, error) {
	if eng.opts.Query == nil {
		return nil, errors.New("shard: service requires an engine built with Options.Query")
	}
	if dur != nil && dur.Engine != eng {
		return nil, errors.New("shard: service: dur does not wrap eng")
	}
	if opts.Buffer <= 0 {
		opts.Buffer = 1024
	}
	return &Service{
		opts: opts,
		eng:  eng,
		dur:  dur,
		in:   make(chan *tweet.Message, opts.Buffer),
		done: make(chan struct{}),
	}, nil
}

// RegisterMetrics exposes the service on reg under the same
// provex_pipeline_* families as the serial pipeline.Service, so the
// deployment surface is shell-agnostic; pair with the engine's and
// durable's own RegisterMetrics for the shard-level families.
func (s *Service) RegisterMetrics(reg *metrics.Registry) {
	reg.RegisterCounterFunc("provex_pipeline_ingested_total",
		"Messages applied by the ingest writer.",
		func() float64 { s.mu.RLock(); defer s.mu.RUnlock(); return float64(s.eng.Global()) })
	reg.RegisterCounterFunc("provex_pipeline_checkpoints_total",
		"Durable checkpoints written.",
		func() float64 { return float64(s.Checkpoints()) })
	reg.RegisterTimer("provex_pipeline_checkpoint_seconds",
		"Cumulative checkpoint time (retry drain, store sync, atomic write, WAL truncate).",
		&s.ckptTimer)
	reg.RegisterGaugeFunc("provex_pipeline_queue_depth",
		"Messages waiting in the ingest queue (capacity reached = producers blocked on backpressure).",
		func() float64 { return float64(len(s.in)) })
	reg.RegisterGaugeFunc("provex_pipeline_queue_capacity",
		"Capacity of the ingest queue.",
		func() float64 { return float64(cap(s.in)) })
}

// Start launches the writer goroutine.
func (s *Service) Start() {
	go s.run()
}

// run is the writer loop: prepare (possibly on a worker pool), buffer
// into the engine under the write lock, and flush a partial round
// whenever the queue runs dry so a live tail never sits invisible and
// non-durable in the batch buffer.
func (s *Service) run() {
	defer close(s.done)
	workers := s.opts.Workers
	if workers == 0 {
		workers = s.eng.shards[0].eng.Config().Parallel.Workers
	}
	next := s.sequentialNext()
	if workers > 1 {
		next = s.parallelNext(workers)
	}
	for {
		p, ok, idle := next()
		if ok {
			s.apply(p)
		}
		if idle || !ok {
			s.flush()
		}
		if !ok {
			break
		}
	}
	if s.dur != nil && s.eng.Global() > 0 {
		s.checkpoint()
	}
}

// sequentialNext prepares inline. The third return reports an empty
// queue at the time the message was taken — the flush-on-idle signal.
func (s *Service) sequentialNext() func() (core.Prepared, bool, bool) {
	return func() (core.Prepared, bool, bool) {
		m, ok := <-s.in
		if !ok {
			return core.Prepared{}, false, true
		}
		return core.Prepare(m), true, len(s.in) == 0
	}
}

// parallelNext fans prepare over a PreparePool while keeping apply
// order equal to submission order.
func (s *Service) parallelNext(workers int) func() (core.Prepared, bool, bool) {
	pool := pipeline.NewPreparePool(workers, 0)
	go func() {
		for m := range s.in {
			pool.Dispatch(m)
		}
		pool.Close()
	}()
	return func() (core.Prepared, bool, bool) {
		p, ok := pool.Next()
		if !ok {
			return core.Prepared{}, false, true
		}
		return p, true, len(s.in) == 0
	}
}

// apply buffers one prepared message; a full batch resolves a round
// in-line. Engine mutations happen under the write lock, so queries
// see only between-round (or between-message, at Batch=1) state.
func (s *Service) apply(p core.Prepared) {
	s.mu.Lock()
	err := s.eng.IngestPrepared(p)
	s.mu.Unlock()
	if err != nil {
		// Latched by the engine; surfaced by Err. The queue keeps
		// draining so Stop does not deadlock producers.
		return
	}
	s.maybeCheckpoint()
}

// flush resolves a partial round so the live tail becomes visible and
// durable.
func (s *Service) flush() {
	s.mu.Lock()
	pending := s.eng.Pending()
	var err error
	if pending > 0 {
		err = s.eng.Flush()
	}
	s.mu.Unlock()
	if pending > 0 && err == nil {
		s.maybeCheckpoint()
	}
}

// maybeCheckpoint runs the barrier when the cadence has elapsed.
func (s *Service) maybeCheckpoint() {
	if s.dur == nil || s.opts.CheckpointEvery <= 0 {
		return
	}
	s.mu.RLock()
	committed := int(s.eng.Global())
	s.mu.RUnlock()
	if committed-s.sinceCkpt < s.opts.CheckpointEvery {
		return
	}
	s.sinceCkpt = committed
	s.checkpoint()
}

// checkpoint runs the coordinated barrier under the write lock (the
// per-shard drains mutate engines, and the barrier must sit between
// rounds). Failures are latched and surfaced by Err.
func (s *Service) checkpoint() {
	start := time.Now()
	s.mu.Lock()
	err := s.dur.Checkpoint()
	s.mu.Unlock()
	s.ckptTimer.Observe(time.Since(start))
	if err != nil {
		s.stopMu.Lock()
		if s.ckptErr == nil {
			s.ckptErr = fmt.Errorf("shard: service checkpoint: %w", err)
		}
		s.stopMu.Unlock()
	}
}

// Submit enqueues one message for ingest, blocking when the buffer is
// full. Messages must be submitted in stream (date) order.
func (s *Service) Submit(m *tweet.Message) error {
	s.stopMu.Lock()
	if s.closed {
		s.stopMu.Unlock()
		return ErrClosed
	}
	defer s.stopMu.Unlock()
	s.in <- m
	return nil
}

// Stop drains the queue, waits for the writer (including the final
// flush and barrier) and returns the first background error, if any.
func (s *Service) Stop() error {
	s.stopMu.Lock()
	if !s.closed {
		s.closed = true
		close(s.in)
	}
	s.stopMu.Unlock()
	<-s.done
	return s.Err()
}

// Err surfaces the first background failure without stopping.
func (s *Service) Err() error {
	s.stopMu.Lock()
	ckptErr := s.ckptErr
	s.stopMu.Unlock()
	if ckptErr != nil {
		return ckptErr
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.eng.Err()
}

// Ingested returns the committed stream prefix length.
func (s *Service) Ingested() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return int(s.eng.Global())
}

// Checkpoints returns completed barriers (0 for memory engines).
func (s *Service) Checkpoints() int {
	if s.dur == nil {
		return 0
	}
	return int(s.dur.Checkpoints())
}

// Snapshot aggregates engine statistics under the read lock.
func (s *Service) Snapshot() core.Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.eng.Snapshot()
}

// SearchMessages answers a conventional message query: every shard's
// top k merged under (score desc, message ID asc).
func (s *Service) SearchMessages(q string, k int) []query.MessageHit {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var all []query.MessageHit
	for _, sh := range s.eng.shards {
		all = append(all, sh.proc.SearchMessages(q, k)...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].Msg.ID < all[j].Msg.ID
	})
	return truncate(all, k)
}

// SearchBundles answers a provenance bundle query (Eq. 7): every
// shard's top k merged under (score desc, bundle ID asc).
func (s *Service) SearchBundles(q string, k int) []query.BundleHit {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var all []query.BundleHit
	for _, sh := range s.eng.shards {
		all = append(all, sh.proc.SearchBundles(q, k)...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].ID < all[j].ID
	})
	return truncate(all, k)
}

// Trending merges every shard's leaderboard under (score desc, bundle
// ID asc).
func (s *Service) Trending(k int) []trending.Topic {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var all []trending.Topic
	for _, sh := range s.eng.shards {
		all = append(all, sh.proc.Trending(k)...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].ID < all[j].ID
	})
	return truncate(all, k)
}

// Bundle resolves a bundle on its owning shard (pool, then that
// shard's disk back-end) under the read lock and returns a copy the
// writer never mutates (query.Processor.Bundle).
func (s *Service) Bundle(id bundle.ID) (*bundle.Bundle, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.eng.shards[Owner(id, len(s.eng.shards))].proc.Bundle(id)
}

// Trail renders a bundle's provenance forest from its owning shard.
func (s *Service) Trail(id bundle.ID) (string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.eng.shards[Owner(id, len(s.eng.shards))].proc.Trail(id)
}

func truncate[T any](hits []T, k int) []T {
	if k > 0 && len(hits) > k {
		hits = hits[:k]
	}
	return hits
}
