package main

import (
	"fmt"
	"path/filepath"
	"time"

	"provex/internal/core"
	"provex/internal/metrics"
	"provex/internal/pipeline"
	"provex/internal/query"
	"provex/internal/server"
	"provex/internal/tweet"
)

// serveStack is what `provserve -live -ckpt -wal` runs: the durable
// single-writer pipeline on the Full Index, answering queries through
// the pipeline's read lock while it ingests.
type serveStack struct {
	dir  string
	dur  *pipeline.Durable
	proc *query.Processor
	svc  *pipeline.Service
	reg  *metrics.Registry
}

// openServeStack builds the stack and preloads it through the running
// service.
func openServeStack(dir string, preload []*tweet.Message) (*serveStack, error) {
	dur, err := pipeline.OpenDurable(core.FullIndexConfig(), nil, nil, durableOptions(dir))
	if err != nil {
		return nil, err
	}
	proc := query.New(dur.Engine(), query.DefaultOptions())
	svc := pipeline.New(proc, pipeline.Options{Durable: dur, CheckpointEvery: 50_000})
	reg := metrics.NewRegistry()
	proc.Engine().RegisterMetrics(reg)
	dur.RegisterMetrics(reg)
	svc.RegisterMetrics(reg)
	svc.Start()
	st := &serveStack{dir: dir, dur: dur, proc: proc, svc: svc, reg: reg}
	for _, m := range preload {
		if err := svc.Submit(m); err != nil {
			st.close()
			return nil, err
		}
	}
	for svc.Ingested() < len(preload) {
		time.Sleep(time.Millisecond)
	}
	return st, nil
}

func (st *serveStack) close() error {
	err := st.svc.Stop()
	if cerr := st.dur.Close(); err == nil {
		err = cerr
	}
	return err
}

// openLoopFeed submits msgs on a fixed schedule starting at t0,
// whatever the service's pace, and returns how late each submit began.
// It wakes every feedTick and submits every message then due, rather
// than sleeping per message.
func openLoopFeed(svc service, msgs []*tweet.Message, t0 time.Time, rate float64) ([]time.Duration, error) {
	interval := time.Duration(float64(time.Second) / rate)
	late := make([]time.Duration, 0, len(msgs))
	for i, m := range msgs {
		due := t0.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(max(d, feedTick))
		}
		late = append(late, max(0, time.Since(due)))
		if err := svc.Submit(m); err != nil {
			return late, err
		}
	}
	return late, nil
}

const feedTick = 10 * time.Millisecond

func runServe(p params, rep *report, tr *tracer) error {
	s := p.size
	base := liveHeap()
	nLive := int(p.seconds.Seconds() * s.serveIngest)
	msgs := stream(p.seed, s.servePreload+nLive)
	setup, st, err := setups(s.preloadSetups, func(i int) (*serveStack, error) {
		return openServeStack(filepath.Join(p.out, fmt.Sprintf("stack%d", i)), msgs[:s.servePreload])
	}, func(st *serveStack) { _ = st.close() })
	if err != nil {
		return err
	}
	rep.setE2E("setup_s", setup.Seconds(), "s")

	qs := newQuerySet(msgs[:min(s.servePreload, s.queryPrefix)], p.seed)
	var backend server.Backend = st.svc
	var tb *timedBackend
	if tr != nil {
		tb = newTimedBackend(st.svc, tr)
		backend = tb
	}
	c := newClient(server.New(backend, server.WithRegistry(st.reg)), tb, tr)

	// Ingest is an open loop at a fixed rate. Queries come from one
	// client with provload's mix (search 5 : prov 3 : trending 1),
	// paced to serveQueries per second: each request starts
	// 1/serveQueries after the one before, or as soon as that one is
	// answered if it took longer. Latency is then the answer's own
	// time under concurrent writes, not queueing behind earlier
	// requests, which on two CPUs made an open query loop's
	// percentiles swing by half between runs. /bundle, provload's
	// fourth endpoint, is asked once ingest has stopped:
	// server.handleBundle reads the bundle after the pipeline's read
	// lock is released, and crashes the process when the writer grows
	// that bundle at the same time.
	m0 := memNow()
	live := msgs[s.servePreload:]
	t0 := time.Now()
	fed := make(chan struct{})
	var feedLate []time.Duration
	var feedErr error
	go func() {
		defer close(fed)
		feedLate, feedErr = openLoopFeed(st.svc, live, t0, s.serveIngest)
	}()
	interval := time.Duration(float64(time.Second) / s.serveQueries)
	var calls []call
	next := t0
	for running := true; running; {
		for _, r := range qs.plan([numKinds]int{5, 3, 0, 1}, 1) {
			time.Sleep(time.Until(next))
			next = time.Now().Add(interval)
			cl := c.resolve(r)
			c.do(cl, int64(len(calls)))
			calls = append(calls, cl)
		}
		select {
		case <-fed:
			running = false
		default:
		}
	}
	queryRate := float64(len(calls)) / time.Since(t0).Seconds()
	stopErr := st.svc.Stop()
	wall := time.Since(t0)
	lat := c.latencies()
	c.pass(qs.plan([numKinds]int{kBundle: s.replayBundle}, 1))
	calls = append(calls, c.calls...)
	rep.ops(int64(len(feedLate)), 0)
	rep.check(feedErr == nil && stopErr == nil, "serve ingest: %v %v", feedErr, stopErr)
	reportRuntime(rep, m0, len(live))
	final := st.svc.Snapshot()
	total := s.servePreload + len(live)
	rep.check(final.Messages == int64(total), "serve acknowledged %d of %d messages", final.Messages, total)
	rep.setE2E("ingest_msgs_per_s", float64(len(live))/wall.Seconds(), "1/s")
	c.reportLatency(rep)
	rep.check(c.nonempty() > minNonempty, "only %.2f of /search and /prov answers had a hit", c.nonempty())
	rep.headline = mean(lat).Seconds()
	rep.addExtra("loadgen.late_p99_ms", ms(quantile(feedLate, 0.99)), "ms")
	rep.stamp = append(rep.stamp, fmt.Sprintf("serve_query_rate_achieved=%.1f", queryRate))
	rep.addExtra("query.nonempty_ratio_live", c.nonempty(), "ratio")

	if tr != nil {
		quiescentReplay(rep, tr, st.proc, calls)
	}
	qs, msgs, live, c, calls = nil, nil, nil, nil, nil

	reportHeapDisk(rep, base, total, st.dir, final)
	if err := reportStackLayers(rep, st.reg, tr, total, final); err != nil {
		return err
	}
	if err := st.dur.Close(); err != nil {
		return err
	}
	dir := st.dir
	ts, err := reopenTimes(rep, final, reopens, func() (core.Stats, func() error, error) {
		again, err := pipeline.OpenDurable(core.FullIndexConfig(), nil, nil, durableOptions(dir))
		if err != nil {
			return core.Stats{}, nil, err
		}
		return again.Engine().Snapshot(), again.Close, nil
	})
	if err != nil {
		return err
	}
	rep.setE2E("recover_s", medianDur(ts).Seconds(), "s")
	return nil
}

// quiescentReplay sends the live run's request sequence again, to the
// quiescent query.Processor, for the per-layer query metrics. The
// difference between the live and the quiescent Backend span of the
// same request is the time the request waited on the pipeline's read
// lock and the CPU the writer held.
func quiescentReplay(rep *report, live *tracer, proc *query.Processor, calls []call) {
	qt := newTracer()
	tb := newTimedBackend(proc, qt)
	c := newClient(server.New(tb), tb, qt)
	for i, cl := range calls {
		c.do(cl, int64(i))
	}
	c.reportOps(rep)
	reportQueryLayers(rep, qt, c)
	var wait []time.Duration
	for _, name := range []string{"textindex.search", "query.search_bundles", "trending.detect"} {
		q := qt.byReq(name)
		for req, d := range live.byReq(name) {
			if qd, ok := q[req]; ok {
				wait = append(wait, d-qd)
			}
		}
	}
	rep.addExtra("pipeline.read_wait_us_p50", us(quantile(wait, 0.5)), "us")
	rep.addExtra("pipeline.read_wait_us_p99", us(quantile(wait, 0.99)), "us")
	live.absorb(qt)
}
