package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"provex/internal/core"
	"provex/internal/metrics"
	"provex/internal/pipeline"
	"provex/internal/query"
	"provex/internal/server"
	"provex/internal/shard"
	"provex/internal/storage"
	"provex/internal/tweet"
)

// ingestStack is the single-writer stack `provserve -live -ckpt -wal`
// ships, on the paper's Partial Index with a bundle store.
type ingestStack struct {
	dir   string
	store *storage.Store
	dur   *pipeline.Durable
	proc  *query.Processor
	svc   *pipeline.Service
	reg   *metrics.Registry
}

// durableOptions is the durability policy of every single-writer
// stack: `provserve -ckpt -wal` with the WAL fsynced every 64 records.
func durableOptions(dir string) pipeline.DurableOptions {
	return pipeline.DurableOptions{
		CheckpointPath: filepath.Join(dir, "engine.ckpt"),
		WALDir:         filepath.Join(dir, "wal"),
		WALSyncEvery:   64,
	}
}

func openIngestStack(dir string, s sizing) (*ingestStack, error) {
	store, err := storage.Open(filepath.Join(dir, "store"), storage.Options{})
	if err != nil {
		return nil, err
	}
	dur, err := pipeline.OpenDurable(core.PartialIndexConfig(s.poolBundles), store, nil, durableOptions(dir))
	if err != nil {
		store.Close()
		return nil, err
	}
	proc := query.New(dur.Engine(), query.DefaultOptions())
	svc := pipeline.New(proc, pipeline.Options{Durable: dur, CheckpointEvery: s.ckptEvery})
	reg := metrics.NewRegistry()
	proc.Engine().RegisterMetrics(reg)
	dur.RegisterMetrics(reg)
	svc.RegisterMetrics(reg)
	return &ingestStack{dir: dir, store: store, dur: dur, proc: proc, svc: svc, reg: reg}, nil
}

func (st *ingestStack) close() error {
	err := st.dur.Close()
	if cerr := st.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// service is the ingest and query surface pipeline.Service and
// shard.Service share.
type service interface {
	Start()
	Submit(*tweet.Message) error
	Stop() error
	server.Backend
}

// feed is the closed-loop firehose: one feeder submits msgs as fast as
// the service accepts them, then stops the service (which drains the
// queue and writes the final checkpoint). prefill messages are queued
// before the writer starts, so a sharded writer never finds its queue
// empty and flushes a short round early.
func feed(svc service, msgs []*tweet.Message, prefill int) (n int, wall, blocked time.Duration, err error) {
	start := time.Now()
	for ; n < prefill && n < len(msgs); n++ {
		if err := svc.Submit(msgs[n]); err != nil {
			return n, 0, 0, err
		}
	}
	svc.Start()
	for n < len(msgs) {
		t := time.Now()
		if err = svc.Submit(msgs[n]); err != nil {
			break
		}
		blocked += time.Since(t)
		n++
	}
	if serr := svc.Stop(); err == nil {
		err = serr
	}
	return n, time.Since(start), blocked, err
}

// passes is how many times an untraced closed-loop run feeds its
// stream, each time into a fresh stack; ingest_msgs_per_s is the
// median pass's rate, so a burst of load from elsewhere on the host
// during one pass does not set the figure.
const passes = 3

// passStack is a closed-loop stack as a pass uses it: its service,
// its close, and a reopen of its directory once it is closed, which
// returns the recovered snapshot and the reopened stack's close.
type passStack struct {
	svc    service
	close  func() error
	reopen func() (core.Stats, func() error, error)
}

// extraPasses feeds msgs into passes-1 throwaway stacks from open.
// Once a stack holds the whole stream it gets a query pass of rp, is
// closed and is reopened reopens/passes times. It returns each pass's
// wall time and each reopen's time. The run's own stack then makes the
// last pass. Query passes and reopens thus sample the whole run, not
// only its end.
func extraPasses(p params, rep *report, msgs []*tweet.Message, prefill int, rp *replay, open func(i int) (passStack, error)) (walls, recovers []time.Duration, err error) {
	for i := 0; i < passes-1; i++ {
		ps, err := open(i)
		if err != nil {
			return nil, nil, err
		}
		_, wall, _, err := feed(ps.svc, msgs, prefill)
		var want core.Stats
		if err == nil {
			rp.pass(rp.target(ps.svc), p)
			want = ps.svc.Snapshot()
		}
		if cerr := ps.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, nil, err
		}
		walls = append(walls, wall)
		ts, err := reopenTimes(rep, want, reopens/passes, ps.reopen)
		if err != nil {
			return nil, nil, err
		}
		recovers = append(recovers, ts...)
	}
	return walls, recovers, nil
}

// stepIngest is the traced single writer: the calls
// pipeline.Service.apply makes, one at a time, each in its own span.
func stepIngest(st *ingestStack, msgs []*tweet.Message, every int, tr *tracer) (n int, wall time.Duration, err error) {
	start := time.Now()
	checkpoint := func() error {
		id := tr.begin("core.drain_retries", -1, int64(n))
		// As in pipeline.Service: a failed drain leaves bundles parked,
		// and the checkpoint persists them.
		_ = st.dur.Engine().DrainFlushRetries()
		tr.end(id)
		id = tr.begin("pipeline.checkpoint", -1, int64(n))
		defer tr.end(id)
		return st.dur.Checkpoint()
	}
	for n < len(msgs) {
		m, req := msgs[n], int64(n)
		id := tr.begin("tokenizer.prepare", -1, req)
		p := core.Prepare(m)
		tr.end(id)
		id = tr.begin("wal.append", -1, req)
		err = st.dur.Log(m)
		tr.end(id)
		if err != nil {
			return n, 0, err
		}
		id = tr.begin("query.insert", -1, req)
		st.proc.InsertPrepared(p)
		tr.end(id)
		n++
		if n%every == 0 {
			if err := checkpoint(); err != nil {
				return n, 0, err
			}
		}
	}
	if n > 0 {
		err = checkpoint()
	}
	return n, time.Since(start), err
}

// closedLoopMsgs is the fixed stream length of the closed-loop
// workloads. A fixed amount of work, rather than a deadline, leaves
// every run of a seed with the same final state, so the reference
// check, the query replay, the heap and disk readings and recovery all
// measure the same thing each time.
func closedLoopMsgs(p params) int {
	return int(p.seconds.Seconds() * float64(p.size.msgsPerSecond))
}

func runIngest(p params, rep *report, tr *tracer) error {
	s := p.size
	base := liveHeap()
	setup, st, err := setups(s.setups, func(i int) (*ingestStack, error) {
		return openIngestStack(filepath.Join(p.out, fmt.Sprintf("stack%d", i)), s)
	}, func(st *ingestStack) { _ = st.close() })
	if err != nil {
		return err
	}
	rep.setE2E("setup_s", setup.Seconds(), "s")
	t := time.Now()
	msgs := stream(p.seed, closedLoopMsgs(p))
	p.phase("generate", t)
	rp := newReplay(newQuerySet(msgs[max(0, len(msgs)-s.queryPrefix):], p.seed), s, tr)

	var walls, recovers []time.Duration
	if tr == nil {
		walls, recovers, err = extraPasses(p, rep, msgs, 0, rp, func(i int) (passStack, error) {
			st, err := openIngestStack(filepath.Join(p.out, fmt.Sprintf("pass%d", i)), s)
			if err != nil {
				return passStack{}, err
			}
			return passStack{st.svc, st.close, reopenIngest(st.dir, s)}, nil
		})
		if err != nil {
			return err
		}
	}
	m0 := memNow()
	var n int
	var wall, blocked time.Duration
	if tr == nil {
		n, wall, blocked, err = feed(st.svc, msgs, 0)
		rep.addExtra("pipeline.submit_blocked_s", blocked.Seconds(), "s")
	} else {
		n, wall, err = stepIngest(st, msgs, s.ckptEvery, tr)
	}
	rep.ops(int64(n), 0)
	rep.check(err == nil, "ingest: %v", err)
	reportRuntime(rep, m0, n)
	final := st.proc.Snapshot()
	rep.check(final.Messages == int64(n), "ingest acknowledged %d of %d messages", final.Messages, n)
	wall = medianDur(append(walls, wall))
	rep.setE2E("ingest_msgs_per_s", float64(n)/wall.Seconds(), "1/s")
	rep.headline = wall.Seconds() / float64(max(n, 1))
	rep.addExtra("ingest_msgs", float64(n), "count")

	rp.pass(rp.target(st.svc, server.WithRegistry(st.reg)), p)
	rp.report(rep)
	rp = nil

	// Reference: the serial engine on the same stream, outside the
	// timed section.
	t = time.Now()
	ref := core.New(core.PartialIndexConfig(s.poolBundles), nil, nil)
	for _, m := range msgs[:n] {
		ref.Insert(m)
	}
	rep.checkErr(sameState(ref.Snapshot(), final), "ingest differs from the serial engine")
	ref, msgs = nil, nil
	p.phase("reference", t)

	reportHeapDisk(rep, base, n, st.dir, final)
	rep.addExtra("storage.bytes_per_msg", float64(st.store.LiveBytes())/float64(max(n, 1)), "B")
	if err := reportStackLayers(rep, st.reg, tr, n, final); err != nil {
		return err
	}

	if err := st.close(); err != nil {
		return err
	}
	ts, err := reopenTimes(rep, final, reopens/passes, reopenIngest(st.dir, s))
	if err != nil {
		return err
	}
	rep.setE2E("recover_s", medianDur(append(recovers, ts...)).Seconds(), "s")
	return nil
}

func reopenIngest(dir string, s sizing) func() (core.Stats, func() error, error) {
	return func() (core.Stats, func() error, error) {
		again, err := openIngestStack(dir, s)
		if err != nil {
			return core.Stats{}, nil, err
		}
		return again.dur.Engine().Snapshot(), again.close, nil
	}
}

// reopens is how many times an untraced run reopens closed stacks;
// recover_s is the median time. The closed-loop workloads share them
// out over their passes' stacks.
const reopens = 9

// reopenTimes reopens a closed stack's directory n times, checks each
// recovered state against want and returns the times. open returns
// the recovered snapshot and the stack's close. Each reopen starts
// from a collected heap, so the previous stack's garbage is not
// charged to it.
func reopenTimes(rep *report, want core.Stats, n int, open func() (core.Stats, func() error, error)) ([]time.Duration, error) {
	var times []time.Duration
	for i := 0; i < n; i++ {
		runtime.GC()
		start := time.Now()
		got, closeFn, err := open()
		if err != nil {
			return nil, fmt.Errorf("reopen: %w", err)
		}
		times = append(times, time.Since(start))
		rep.checkErr(sameState(want, got), "reopened state differs")
		if err := closeFn(); err != nil {
			return nil, err
		}
	}
	return times, nil
}

// reportHeapDisk sets heap and disk bytes per message. The caller must
// hold no reference to the input stream.
func reportHeapDisk(rep *report, base uint64, n int, dir string, final core.Stats) {
	heap := liveHeap()
	per := float64(int64(heap)-int64(base)) / float64(max(n, 1))
	rep.setE2E("heap_bytes_per_msg", per, "B")
	rep.setLayer("core.mem_estimate_bytes_per_msg", float64(final.MemTotal())/float64(max(n, 1)), "B")
	disk, err := dirBytes(dir)
	rep.checkErr(err, "disk usage")
	rep.setE2E("disk_bytes_per_msg", float64(disk)/float64(max(n, 1)), "B")
}

// reportStackLayers sets the registry-derived layer metrics and, in
// traced runs, the span-derived ingest metrics.
func reportStackLayers(rep *report, reg *metrics.Registry, tr *tracer, n int, final core.Stats) error {
	sc, err := readRegistry(reg)
	if err != nil {
		return err
	}
	reportEngineLayers(rep, sc)
	if tr == nil {
		return nil
	}
	total, _ := tr.durations()
	if d := total["tokenizer.prepare"]; len(d) > 0 {
		rep.setLayer("tokenizer.prepare_us_per_msg", us(mean(d)), "us")
		spanExtras(rep, "tokenizer.prepare_us_per_msg", d)
	}
	if d := total["pipeline.checkpoint"]; len(d) > 0 {
		rep.setLayer("pipeline.checkpoint_ms", ms(mean(d)), "ms")
	}
	if d := total["query.insert"]; len(d) > 0 {
		rep.addExtra("query.insert_us_per_msg", us(mean(d)), "us")
		spanExtras(rep, "query.insert_us_per_msg", d)
		stages := final.MatchTime + final.PlaceTime + final.RefineTime
		rep.addExtra("query.index_us_per_msg", us(mean(d))-us(stages)/float64(max(n, 1)), "us")
	}
	if d := total["wal.append"]; len(d) > 0 {
		spanExtras(rep, "wal.append_us_per_msg", d)
	}
	return nil
}

func spanExtras(rep *report, name string, d []time.Duration) {
	rep.addExtra(name+"_p50", us(quantile(d, 0.5)), "us")
	rep.addExtra(name+"_p99", us(quantile(d, 0.99)), "us")
}

// shardStack is shard.Service over shard.Durable with N = GOMAXPROCS
// shards and the default round size.
type shardStack struct {
	dir string
	dur *shard.Durable
	svc *shard.Service
	reg *metrics.Registry
}

func shardOptions() shard.Options {
	q := query.DefaultOptions()
	return shard.Options{Shards: runtime.GOMAXPROCS(0), Query: &q}
}

func openShardStack(dir string, s sizing) (*shardStack, error) {
	dur, err := shard.OpenDurable(core.PartialIndexConfig(s.poolBundles), shardOptions(), shard.DurableOptions{
		Dir:          filepath.Join(dir, "shards"),
		ManifestPath: filepath.Join(dir, "manifest.json"),
		WALSyncEvery: 64,
		Store:        &storage.Options{},
	})
	if err != nil {
		return nil, err
	}
	svc, err := shard.NewService(dur.Engine, dur, shard.ServiceOptions{CheckpointEvery: s.ckptEvery})
	if err != nil {
		dur.Close()
		return nil, err
	}
	reg := metrics.NewRegistry()
	dur.Engine.RegisterMetrics(reg)
	dur.RegisterMetrics(reg)
	svc.RegisterMetrics(reg)
	return &shardStack{dir: dir, dur: dur, svc: svc, reg: reg}, nil
}

// shardPrefill is how many messages the sharded feeder queues before
// the writer starts, so no idle flush splits the first rounds.
const shardPrefill = 1000

// stepSharded is the traced sharded writer: prepare, buffer into the
// round engine (a full batch resolves a round) and run the checkpoint
// barrier on shard.Service's cadence.
func stepSharded(st *shardStack, msgs []*tweet.Message, every int, tr *tracer) (n int, wall time.Duration, err error) {
	start := time.Now()
	last := 0
	barrier := func() error {
		id := tr.begin("shard.checkpoint", -1, int64(n))
		defer tr.end(id)
		return st.dur.Checkpoint()
	}
	for n < len(msgs) {
		req := int64(n)
		id := tr.begin("tokenizer.prepare", -1, req)
		p := core.Prepare(msgs[n])
		tr.end(id)
		name := "shard.buffer"
		if st.dur.Pending() == st.dur.Batch()-1 {
			name = "shard.round"
		}
		id = tr.begin(name, -1, req)
		err = st.dur.IngestPrepared(p)
		tr.end(id)
		if err != nil {
			return n, 0, err
		}
		n++
		if g := int(st.dur.Global()); g-last >= every {
			last = g
			if err := barrier(); err != nil {
				return n, 0, err
			}
		}
	}
	id := tr.begin("shard.round", -1, int64(n))
	err = st.dur.Flush()
	tr.end(id)
	if err == nil {
		err = barrier()
	}
	return n, time.Since(start), err
}

func runSharded(p params, rep *report, tr *tracer) error {
	s := p.size
	base := liveHeap()
	setup, st, err := setups(s.setups, func(i int) (*shardStack, error) {
		return openShardStack(filepath.Join(p.out, fmt.Sprintf("stack%d", i)), s)
	}, func(st *shardStack) { _ = st.dur.Close() })
	if err != nil {
		return err
	}
	rep.setE2E("setup_s", setup.Seconds(), "s")
	t := time.Now()
	msgs := stream(p.seed, closedLoopMsgs(p))
	p.phase("generate", t)
	rp := newReplay(newQuerySet(msgs[max(0, len(msgs)-s.queryPrefix):], p.seed), s, tr)

	var walls, recovers []time.Duration
	if tr == nil {
		walls, recovers, err = extraPasses(p, rep, msgs, shardPrefill, rp, func(i int) (passStack, error) {
			st, err := openShardStack(filepath.Join(p.out, fmt.Sprintf("pass%d", i)), s)
			if err != nil {
				return passStack{}, err
			}
			return passStack{st.svc, st.dur.Close, reopenShard(st.dir, s)}, nil
		})
		if err != nil {
			return err
		}
	}
	m0 := memNow()
	var n int
	var wall, blocked time.Duration
	if tr == nil {
		n, wall, blocked, err = feed(st.svc, msgs, shardPrefill)
		rep.addExtra("pipeline.submit_blocked_s", blocked.Seconds(), "s")
	} else {
		n, wall, err = stepSharded(st, msgs, s.ckptEvery, tr)
	}
	rep.ops(int64(n), 0)
	rep.check(err == nil, "sharded ingest: %v", err)
	reportRuntime(rep, m0, n)
	final := st.svc.Snapshot()
	rep.check(final.Messages == int64(n), "sharded ingest acknowledged %d of %d messages", final.Messages, n)
	wall = medianDur(append(walls, wall))
	rep.setE2E("ingest_msgs_per_s", float64(n)/wall.Seconds(), "1/s")
	rep.headline = wall.Seconds() / float64(max(n, 1))
	rep.addExtra("ingest_msgs", float64(n), "count")
	reportShardLayers(rep, st, n)

	rp.pass(rp.target(st.svc, server.WithRegistry(st.reg)), p)
	rp.report(rep)
	rp = nil

	// Reference: the same protocol run sequentially, same N and B.
	t = time.Now()
	opts := shardOptions()
	opts.Query, opts.Sequential = nil, true
	ref, err := shard.New(core.PartialIndexConfig(s.poolBundles), opts, nil, nil)
	if err != nil {
		return err
	}
	for _, m := range msgs[:n] {
		if err := ref.Ingest(m); err != nil {
			return err
		}
	}
	if err := ref.Flush(); err != nil {
		return err
	}
	rep.checkErr(sameState(ref.Snapshot(), final), "sharded ingest differs from the sequential run")
	ref, msgs = nil, nil
	p.phase("reference", t)

	reportHeapDisk(rep, base, n, st.dir, final)
	if b, err := storeBytes(st.dir); err == nil {
		rep.addExtra("storage.bytes_per_msg", float64(b)/float64(max(n, 1)), "B")
	}
	if err := reportStackLayers(rep, st.reg, tr, n, final); err != nil {
		return err
	}
	if tr != nil {
		total, _ := tr.durations()
		if d := total["shard.checkpoint"]; len(d) > 0 {
			rep.setLayer("pipeline.checkpoint_ms", ms(mean(d)), "ms")
		}
	}

	if err := st.dur.Close(); err != nil {
		return err
	}
	ts, err := reopenTimes(rep, final, reopens/passes, reopenShard(st.dir, s))
	if err != nil {
		return err
	}
	rep.setE2E("recover_s", medianDur(append(recovers, ts...)).Seconds(), "s")
	return nil
}

func reopenShard(dir string, s sizing) func() (core.Stats, func() error, error) {
	return func() (core.Stats, func() error, error) {
		again, err := openShardStack(dir, s)
		if err != nil {
			return core.Stats{}, nil, err
		}
		return again.dur.Snapshot(), again.dur.Close, nil
	}
}

// reportShardLayers sets the round protocol's numbers: the critical
// path per phase, cross-shard resolutions, load balance and the
// checkpoint barrier.
func reportShardLayers(rep *report, st *shardStack, n int) {
	span := st.dur.Span()
	rep.addExtra("shard.probe_s", span.Probe.Seconds(), "s")
	rep.addExtra("shard.reduce_s", span.Reduce.Seconds(), "s")
	rep.addExtra("shard.commit_s", span.Commit.Seconds(), "s")
	rep.addExtra("shard.cross_ratio", float64(st.dur.Cross())/float64(max(n, 1)), "ratio")
	var most, sum int64
	for i := 0; i < st.dur.Shards(); i++ {
		m := st.dur.ShardSnapshot(i).Messages
		sum += m
		most = max(most, m)
	}
	rep.addExtra("shard.imbalance", ratio(float64(most), float64(sum)/float64(st.dur.Shards())), "ratio")
	if sc, err := readRegistry(st.reg); err == nil {
		rep.addExtra("shard.barrier_ms", 1e3*ratio(sc.sum("provex_shard_checkpoint_barrier_seconds_sum"),
			sc.sum("provex_shard_checkpoint_barrier_seconds_count")), "ms")
	}
}

// storeBytes sums the per-shard bundle stores under dir.
func storeBytes(dir string) (int64, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "shards", "shard-*", "store"))
	if err != nil {
		return 0, err
	}
	var total int64
	for _, m := range matches {
		b, err := dirBytes(m)
		if err != nil {
			return 0, err
		}
		total += b
	}
	return total, nil
}
