package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"provex/internal/core"
	"provex/internal/fsx"
	"provex/internal/metrics"
	"provex/internal/pipeline"
	"provex/internal/repl"
	"provex/internal/server"
	"provex/internal/tweet"
)

// buildLeader ingests msgs into a fresh durable Full Index, taking a
// checkpoint after the first ckpt messages, so the rest stay in the
// WAL as the backlog a follower must replay.
func buildLeader(dir string, msgs []*tweet.Message, ckpt int) (*pipeline.Durable, error) {
	d, err := pipeline.OpenDurable(core.FullIndexConfig(), nil, nil, durableOptions(dir))
	if err != nil {
		return nil, err
	}
	for i, m := range msgs {
		if _, err := d.Ingest(m); err != nil {
			d.Close()
			return nil, err
		}
		if i+1 == ckpt {
			if err := d.Checkpoint(); err != nil {
				d.Close()
				return nil, err
			}
		}
	}
	if err := d.SyncWAL(); err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}

// catchupCycles is how many catch-up cycles a run makes: one per
// cycleSeconds of --seconds (six at 10 s), and at least three, so
// every median is one of three or more. A fixed count rather than a
// deadline gives every run the same number of samples, however fast
// the host is while it runs.
func catchupCycles(p params) int {
	return max(3, int(p.seconds.Seconds()/cycleSeconds))
}

const cycleSeconds = 1.6

// catchupWait bounds one follower catch-up; a follower still behind
// then is a failed check.
const catchupWait = 2 * time.Minute

// cycle is one catch-up and recovery round's timings.
type cycle struct {
	setup, catchup, bootstrap, recover, load time.Duration
	replayed                                 int
}

// runCatchup repeats build leader → follower catch-up → leader restart
// catchupCycles times and reports the medians. Every cycle sends a query pass to the caught-up
// follower; the first also measures the recovered leader's heap.
func runCatchup(p params, rep *report, tr *tracer) error {
	s := p.size
	msgs := stream(p.seed, s.catchupCkpt+s.catchupTail)
	rp := newReplay(newQuerySet(msgs[:min(len(msgs), s.queryPrefix)], p.seed), s, tr)
	var cycles []cycle
	var freg *metrics.Registry
	m0 := memNow()
	for i := 0; i < catchupCycles(p); i++ {
		c, reg, err := catchupCycle(p, rep, tr, filepath.Join(p.out, fmt.Sprintf("cycle%d", i)), msgs, rp, i == 0)
		if err != nil {
			return err
		}
		cycles = append(cycles, c)
		freg = reg
	}
	total := len(msgs)
	reportRuntime(rep, m0, total*len(cycles))
	rp.report(rep)
	pick := func(f func(cycle) time.Duration) time.Duration {
		var ds []time.Duration
		for _, c := range cycles {
			ds = append(ds, f(c))
		}
		return medianDur(ds)
	}
	catch := pick(func(c cycle) time.Duration { return c.catchup })
	boot := pick(func(c cycle) time.Duration { return c.bootstrap })
	rec := pick(func(c cycle) time.Duration { return c.recover })
	rep.setE2E("setup_s", pick(func(c cycle) time.Duration { return c.setup }).Seconds(), "s")
	rep.setE2E("ingest_msgs_per_s", float64(total)/catch.Seconds(), "1/s")
	rep.setE2E("recover_s", rec.Seconds(), "s")
	rep.headline = catch.Seconds()
	rep.addExtra("catchup_s", catch.Seconds(), "s")
	rep.addExtra("catchup_cycles", float64(len(cycles)), "count")
	rep.addExtra("repl.bootstrap_s", boot.Seconds(), "s")
	rep.addExtra("repl.tail_msgs_per_s", float64(s.catchupTail)/(catch-boot).Seconds(), "1/s")

	sc, err := readRegistry(freg)
	if err != nil {
		return err
	}
	reportEngineLayers(rep, sc)
	rep.addExtra("repl.bytes_per_msg", ratio(sc.sum("provex_repl_ship_bytes_total"), float64(s.catchupTail)), "B")
	if tr != nil {
		total, _ := tr.durations()
		rep.addExtra("repl.source_us_per_batch", us(mean(total["repl.source/wal"])), "us")
		load := pick(func(c cycle) time.Duration { return c.load })
		rep.addExtra("core.checkpoint_load_s", load.Seconds(), "s")
		replayed := cycles[len(cycles)-1].replayed
		rep.addExtra("wal.replay_msgs_per_s", float64(replayed)/(rec-load).Seconds(), "1/s")
	}
	return nil
}

func catchupCycle(p params, rep *report, tr *tracer, dir string, msgs []*tweet.Message, rp *replay, first bool) (cycle, *metrics.Registry, error) {
	s := p.size
	var c cycle
	start := time.Now()
	leader, err := buildLeader(filepath.Join(dir, "leader"), msgs, s.catchupCkpt)
	if err != nil {
		return c, nil, err
	}
	c.setup = time.Since(start)
	rep.ops(int64(len(msgs)), 0)
	want := leader.Engine().Snapshot()
	target := leader.WALSyncedSeq()

	reg := metrics.NewRegistry()
	src := repl.NewSource(leader, repl.SourceOptions{})
	src.RegisterMetrics(reg)
	tt := &timingTransport{h: src, tr: tr}
	fdir := filepath.Join(dir, "follower")
	if err := (fsx.OS{}).MkdirAll(fdir, 0o755); err != nil {
		return c, nil, err
	}
	follower, err := repl.NewReplica("http://leader.invalid", core.FullIndexConfig(), repl.ReplicaOptions{
		CheckpointPath: filepath.Join(fdir, "engine.ckpt"),
		WALDir:         filepath.Join(fdir, "wal"),
		Client:         &http.Client{Transport: tt},
	})
	if err != nil {
		return c, nil, err
	}
	follower.RegisterMetrics(reg)
	start = time.Now()
	follower.Start()
	caught := false
	for time.Since(start) < catchupWait {
		if follower.Applied() >= target && follower.Snapshot().Messages >= int64(target) {
			caught = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	c.catchup = time.Since(start)
	if first := tt.firstWALAt(); !first.IsZero() {
		c.bootstrap = first.Sub(start)
	}
	rep.check(caught, "follower did not catch up with %d messages within %v", target, catchupWait)
	rep.checkErr(sameState(want, follower.Snapshot()), "follower differs from leader")

	rp.pass(rp.target(follower, server.WithRegistry(reg)), p)
	rep.checkErr(follower.Stop(), "follower stop")

	if first {
		disk, err := dirBytes(filepath.Join(dir, "leader"))
		rep.checkErr(err, "leader disk usage")
		rep.setE2E("disk_bytes_per_msg", float64(disk)/float64(len(msgs)), "B")
	}
	if err := leader.Close(); err != nil {
		return c, nil, err
	}
	opts := durableOptions(filepath.Join(dir, "leader"))
	if tr != nil {
		t := time.Now()
		if _, err := core.LoadCheckpoint(core.FullIndexConfig(), nil, nil, nil, opts.CheckpointPath); err != nil {
			return c, nil, err
		}
		c.load = time.Since(t)
	}
	start = time.Now()
	again, err := pipeline.OpenDurable(core.FullIndexConfig(), nil, nil, opts)
	if err != nil {
		return c, nil, fmt.Errorf("reopen leader: %w", err)
	}
	c.recover = time.Since(start)
	c.replayed = again.Replayed()
	rep.checkErr(sameState(want, again.Engine().Snapshot()), "recovered leader differs")
	if first {
		with := liveHeap()
		st := again.Engine().Snapshot()
		if err := again.Close(); err != nil {
			return c, nil, err
		}
		again = nil
		without := liveHeap()
		rep.setE2E("heap_bytes_per_msg", float64(int64(with)-int64(without))/float64(len(msgs)), "B")
		rep.setLayer("core.mem_estimate_bytes_per_msg", float64(st.MemTotal())/float64(len(msgs)), "B")
		return c, reg, nil
	}
	return c, reg, again.Close()
}
