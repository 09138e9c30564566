// Package pipeline wraps the single-threaded provenance engine in a
// concurrent service: one writer goroutine owns ingest (the paper's
// pipeline is inherently sequential — messages must enter in date
// order), while any number of query goroutines read under a shared
// lock. This is the "real time" deployment shell around the core: the
// demo server and live feeds talk to a Service, not to the Engine.
//
// The Service also supports periodic durable checkpoints (the paper's
// stability requirement): every CheckpointEvery messages the engine
// state is written to CheckpointPath via an atomic temp-file rename, so
// a crashed process can resume from the last checkpoint without
// re-ingesting the stream.
//
// Concurrency contract: Submit is safe from any goroutine (it only
// feeds the queue); Start and Stop must not race each other; all query
// methods take the service's read lock and may run concurrently with
// ingest. RegisterMetrics may be called before Start; the series it
// registers are scrape-safe at any time — counters are atomics, and
// lock-guarded values are read through funcs that take the read lock
// per render.
package pipeline

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"provex/internal/bundle"
	"provex/internal/core"
	"provex/internal/metrics"
	"provex/internal/query"
	"provex/internal/trending"
	"provex/internal/tweet"
)

// ErrClosed is returned by Submit after Stop.
var ErrClosed = errors.New("pipeline: service closed")

// Options configure a Service.
type Options struct {
	// Buffer is the ingest queue capacity; Submit blocks when full
	// (backpressure), so producers can never outrun memory. 0 uses 1024.
	Buffer int
	// CheckpointEvery writes a checkpoint after every n ingested
	// messages; 0 disables checkpointing.
	CheckpointEvery int
	// CheckpointPath is the checkpoint file; required when
	// CheckpointEvery > 0.
	CheckpointPath string
	// Workers sets the number of concurrent prepare goroutines (keyword
	// extraction) feeding the single apply writer. 0 defers to the
	// engine's Parallel.Workers configuration; values <= 1 keep the
	// fully serial writer. Bundle assignment is identical either way —
	// the apply stage consumes prepared messages in submission order.
	Workers int
	// Durable, when set, switches the service to crash-safe ingest:
	// every message is WAL-appended before it is applied, and
	// checkpoints (on the CheckpointEvery cadence and at Stop) go
	// through Durable.Checkpoint — drain parked flushes, sync the
	// store, atomic checkpoint, truncate the WAL. The Durable must wrap
	// the same engine the service's processor does; CheckpointPath is
	// ignored (Durable carries its own).
	Durable *Durable
}

// Service is a concurrent facade over a query.Processor. Create with
// New, feed with Submit, query with the Search/Trail methods, and shut
// down with Stop.
type Service struct {
	opts Options
	proc *query.Processor

	mu sync.RWMutex // guards proc/engine state

	in     chan *tweet.Message
	done   chan struct{}
	stopMu sync.Mutex
	closed bool // guarded by stopMu

	ingested  int   // guarded by mu
	ckptErr   error // guarded by mu
	ckptCount int   // guarded by mu
	walErr    error // guarded by mu

	// ckptTimer accumulates checkpoint wall time (drain + store sync +
	// atomic write + WAL truncate). Atomic, so scrapes read it live.
	ckptTimer metrics.StageTimer
}

// RegisterMetrics exposes the service's instruments on reg under
// canonical provex_pipeline_* names (documented in OBSERVABILITY.md).
// The *Func series take the service's read lock at render time, so a
// scrape briefly queues behind the writer like any query does.
func (s *Service) RegisterMetrics(reg *metrics.Registry) {
	reg.RegisterCounterFunc("provex_pipeline_ingested_total",
		"Messages applied by the ingest writer.",
		func() float64 { return float64(s.Ingested()) })
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

// New builds a Service around proc. Call Start before Submit.
func New(proc *query.Processor, opts Options) *Service {
	if opts.Buffer <= 0 {
		opts.Buffer = 1024
	}
	return &Service{
		opts: opts,
		proc: proc,
		in:   make(chan *tweet.Message, opts.Buffer),
		done: make(chan struct{}),
	}
}

// Start launches the writer goroutine.
func (s *Service) Start() {
	go s.run()
}

func (s *Service) run() {
	defer close(s.done)
	workers := s.opts.Workers
	if workers == 0 {
		workers = s.proc.Engine().Config().Parallel.Workers
	}
	if workers > 1 {
		s.runParallel(workers)
	} else {
		for m := range s.in {
			s.apply(core.Prepare(m))
		}
	}
	// Final checkpoint on drain, so Stop leaves durable state. Read
	// the count through the locked accessor: Stop's caller goroutine
	// observes ingested too, and the writer is not the only reader by
	// the time the channel drains.
	if s.Ingested() > 0 && (s.opts.CheckpointEvery > 0 || s.opts.Durable != nil) {
		s.checkpoint()
	}
}

// runParallel fans keyword extraction out over a PreparePool while this
// goroutine stays the only writer: prepared messages are applied
// strictly in submission order, so the resulting bundle state is
// identical to the serial path.
func (s *Service) runParallel(workers int) {
	pool := NewPreparePool(workers, 0)
	go func() {
		for m := range s.in {
			pool.Dispatch(m)
		}
		pool.Close()
	}()
	for {
		p, ok := pool.Next()
		if !ok {
			return
		}
		s.apply(p)
	}
}

// apply is the sequential half of ingest: make the message durable
// (WAL-before-apply), mutate engine state under the write lock and
// checkpoint on cadence.
func (s *Service) apply(p core.Prepared) {
	if d := s.opts.Durable; d != nil {
		if err := d.Log(p.Doc.Msg); err != nil {
			// The message stays in memory but is not crash-safe:
			// degraded durability, latched and surfaced by Err while
			// ingest continues (availability over durability).
			s.setWALErr(err)
		}
	}
	s.mu.Lock()
	s.proc.InsertPrepared(p)
	s.ingested++
	n := s.ingested
	s.mu.Unlock()
	if s.opts.CheckpointEvery > 0 && n%s.opts.CheckpointEvery == 0 {
		s.checkpoint()
	}
}

// checkpoint writes engine state to disk atomically. Only the writer
// goroutine calls it. Failures are latched and surfaced by Err.
func (s *Service) checkpoint() {
	start := time.Now()
	defer func() { s.ckptTimer.Observe(time.Since(start)) }()
	if d := s.opts.Durable; d != nil {
		// Draining parked flushes mutates the engine: write lock.
		s.mu.Lock()
		d.DrainRetries()
		s.mu.Unlock()
		// The checkpoint itself only reads — queries stay answerable.
		s.mu.RLock()
		err := d.Checkpoint()
		s.mu.RUnlock()
		if err != nil {
			s.setCkptErr(err)
			return
		}
		s.mu.Lock()
		s.ckptCount++
		s.mu.Unlock()
		return
	}
	s.mu.RLock()
	err := s.proc.Engine().SaveCheckpoint(nil, s.opts.CheckpointPath)
	s.mu.RUnlock()
	if err != nil {
		s.setCkptErr(err)
		return
	}
	s.mu.Lock()
	s.ckptCount++
	s.mu.Unlock()
}

func (s *Service) setCkptErr(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ckptErr == nil {
		s.ckptErr = fmt.Errorf("pipeline: checkpoint: %w", err)
	}
}

func (s *Service) setWALErr(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.walErr == nil {
		s.walErr = fmt.Errorf("pipeline: wal: %w", err)
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
	// Hold stopMu across the send so Stop cannot close the channel
	// between the check and the send.
	defer s.stopMu.Unlock()
	s.in <- m
	return nil
}

// Stop drains the queue, waits for the writer to finish (including the
// final checkpoint) and returns the first background error, if any.
func (s *Service) Stop() error {
	s.stopMu.Lock()
	if !s.closed {
		s.closed = true
		close(s.in)
	}
	s.stopMu.Unlock()
	<-s.done
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.firstErrLocked()
}

// Err surfaces the first background failure without stopping.
func (s *Service) Err() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.firstErrLocked()
}

func (s *Service) firstErrLocked() error {
	if s.ckptErr != nil {
		return s.ckptErr
	}
	if s.walErr != nil {
		return s.walErr
	}
	return s.proc.Engine().Err()
}

// Ingested returns how many messages the writer has processed.
func (s *Service) Ingested() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ingested
}

// Checkpoints returns how many checkpoints have been written.
func (s *Service) Checkpoints() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ckptCount
}

// Snapshot returns engine statistics under the read lock.
func (s *Service) Snapshot() core.Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.proc.Engine().Snapshot()
}

// SearchBundles answers a provenance bundle query (Eq. 7) under the
// read lock.
func (s *Service) SearchBundles(q string, k int) []query.BundleHit {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.proc.SearchBundles(q, k)
}

// SearchMessages answers a conventional message query under the read
// lock.
func (s *Service) SearchMessages(q string, k int) []query.MessageHit {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.proc.SearchMessages(q, k)
}

// Trail renders a bundle's provenance forest under the read lock.
func (s *Service) Trail(id bundle.ID) (string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.proc.Trail(id)
}

// Bundle resolves a bundle (pool or disk) under the read lock and
// returns a copy the writer never mutates (query.Processor.Bundle).
func (s *Service) Bundle(id bundle.ID) (*bundle.Bundle, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.proc.Bundle(id)
}

// Trending returns the hottest live bundles under the read lock.
func (s *Service) Trending(k int) []trending.Topic {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.proc.Trending(k)
}
