// Command perfbench is provex's end-to-end and per-layer benchmark.
//
// It runs one named workload against the stacks provex ships, checks
// every output against a reference, and prints each metric by name
// with its unit; the last line of standard output is a JSON summary.
//
//	bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
//
// Workloads (see BENCHMARK.json for why each exists):
//
//	ingest   closed-loop firehose into pipeline.Service + pipeline.Durable,
//	         Partial Index (pool 10k) with a storage.Store
//	sharded  the same stream through shard.Service over shard.Durable
//	serve    durable Full Index, preloaded, with open-loop ingest while a
//	         client queries it through server.Server.ServeHTTP
//	catchup  a repl.Replica catches up with a leader's checkpoint and WAL
//	         backlog; the leader is then closed and recovered
//
// --trace 0 measures with tracing off and reports the end-to-end
// metrics. --trace 1 runs the workload untraced and then traced, and
// reports the per-layer metrics taken from in-memory spans recorded
// around the benchmark's calls into each layer, plus the tracing
// overhead. The program under test is not instrumented; layer counts
// come from what provex already exports (engine snapshots, shard span
// stats, store sizes and metrics registries read back through
// promtext).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"provex/internal/fsx"
)

// sizing holds every size and rate of a run. Tests shrink it.
type sizing struct {
	msgsPerSecond int     // ingest, sharded: stream length per run second, fed in each pass
	poolBundles   int     // Partial Index pool limit
	ckptEvery     int     // ingest/sharded checkpoint cadence in messages
	setups        int     // constructions per run of a stack that needs no preload; setup_s is their median
	preloadSetups int     // serve: constructions per run, each with its preload
	queryPrefix   int     // messages the query set is drawn from: the newest ingested (ingest, sharded) or the first (serve, catchup)
	servePreload  int     // serve: messages ingested before the live phase
	serveIngest   float64 // serve: offered ingest rate, msg/s
	serveQueries  float64 // serve: most queries per second; each starts at least 1/serveQueries after the one before
	catchupCkpt   int     // catchup: messages covered by the leader checkpoint
	catchupTail   int     // catchup: messages in the leader's WAL backlog
	replaySearch  int     // quiescent replay: /search requests per pass
	replayProv    int     // quiescent replay: /prov requests per pass
	replayBundle  int     // quiescent replay: /bundle requests per pass
	replayTrend   int     // quiescent replay: /trending requests per pass
}

// defaultSizing is what the command runs. Every replay count leaves at
// least ten samples beyond each endpoint's p90; /search and /bundle,
// which are cheap, are asked often enough for their deeper tails too.
var defaultSizing = sizing{
	msgsPerSecond: 4000,
	poolBundles:   10_000,
	ckptEvery:     20_000,
	setups:        31,
	preloadSetups: 3,
	queryPrefix:   20_000,
	servePreload:  10_000,
	serveIngest:   1500,
	serveQueries:  100,
	catchupCkpt:   8000,
	catchupTail:   8000,
	replaySearch:  1000,
	replayProv:    400,
	replayBundle:  1000,
	replayTrend:   100,
}

// params is one invocation.
type params struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	out      string // directory for data dirs and span files
	size     sizing
	log      io.Writer // phase timings, for whoever watches the run
}

// phase logs how long a step of the run took.
func (p params) phase(name string, start time.Time) {
	fmt.Fprintf(p.log, "perfbench: %s %s %.2fs\n", p.workload, name, time.Since(start).Seconds())
}

// metric is one named, unit-carrying measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

// endToEnd and perLayer are the metric names BENCHMARK.json declares,
// in print order. Every workload reports all of them; workload-only
// numbers go to the report's extra lines instead.
var endToEnd = []string{
	"setup_s", "ingest_msgs_per_s", "heap_bytes_per_msg", "disk_bytes_per_msg", "recover_s", "query_p50_geomean_ms",
}

var perLayer = []string{
	"tokenizer.prepare_us_per_msg", "core.match_us_per_msg", "core.place_us_per_msg",
	"core.place_nodes_scored_per_msg", "core.match_pruned_per_msg", "core.mem_estimate_bytes_per_msg",
	"wal.append_us_per_msg", "wal.fsync_ms", "wal.fsyncs_per_msg", "pipeline.checkpoint_ms",
	"runtime.alloc_bytes_per_msg", "runtime.gc_pause_ms",
	"server.search_self_us_p50", "server.search_self_us_p99", "server.prov_self_us_p50", "server.prov_self_us_p99",
	"server.bundle_self_us_p50", "server.bundle_self_us_p99", "server.trending_self_us_p50", "server.trending_self_us_p99",
	"textindex.search_us_p50", "textindex.search_us_p99", "query.search_bundles_us_p50", "query.search_bundles_us_p99",
	"query.bundle_us_p50", "query.bundle_us_p99", "trending.detect_us_p50", "trending.detect_us_p99",
	"query.nonempty_ratio", "trace.overhead_pct",
}

// report collects one workload run's metrics and check outcomes.
type report struct {
	e2e       map[string]metric
	layer     map[string]metric
	extra     []metric // workload-specific numbers, printed but not in the JSON summary
	stamp     []string // measured load, key=value, added to the host stamp
	attempted int64
	failed    int64
	problems  []string
	headline  float64 // seconds per unit of work, for the tracing overhead
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layer: map[string]metric{}}
}

func (r *report) setE2E(name string, v float64, unit string) { r.e2e[name] = metric{name, v, unit} }
func (r *report) setLayer(name string, v float64, unit string) {
	r.layer[name] = metric{name, v, unit}
}
func (r *report) addExtra(name string, v float64, unit string) {
	r.extra = append(r.extra, metric{name, v, unit})
}

// ops counts n attempted operations, failed of which failed.
func (r *report) ops(n, failed int64) {
	r.attempted += n
	r.failed += failed
}

// check counts one output check; a false ok is a failure with a reason.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// checkErr counts one output check that failed if err is not nil.
func (r *report) checkErr(err error, what string) {
	r.check(err == nil, "%s: %v", what, err)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "ingest, sharded, serve or catchup")
	seed := fs.Int64("seed", 1, "generator seed for the stream and the query set")
	seconds := fs.Float64("seconds", 10, "measured duration of the run")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced run")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for data and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	p := params{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *traceFlag == 1,
		out:      *out,
		size:     defaultSizing,
		log:      stderr,
	}
	rep, err := execute(p)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := printReport(stdout, p, rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if rep.failed > 0 {
		for _, pr := range rep.problems {
			fmt.Fprintln(stderr, "perfbench: check failed:", pr)
		}
		return 1
	}
	return 0
}

var workloads = map[string]func(params, *report, *tracer) error{
	"ingest":  runIngest,
	"sharded": runSharded,
	"serve":   runServe,
	"catchup": runCatchup,
}

// execute runs the workload (untraced; with --trace 1 again traced)
// and fills in the tracing overhead: the traced run's time per unit of
// work against the untraced run's. The traced writers are stepwise
// loops without the services' queue, so the overhead includes that
// difference as well as the spans' own cost.
func execute(p params) (*report, error) {
	fn, ok := workloads[p.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want ingest, sharded, serve or catchup)", p.workload)
	}
	if err := (fsx.OS{}).MkdirAll(p.out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(p.out, p.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir) //provlint:ignore fsxdiscipline removes the run's scratch data after the stacks are closed
	p.out = dir

	plain := newReport()
	if err := fn(withSub(p, "plain"), plain, nil); err != nil {
		return nil, err
	}
	if !p.trace {
		return plain, nil
	}
	tr := newTracer()
	traced := newReport()
	if err := fn(withSub(p, "traced"), traced, tr); err != nil {
		return nil, err
	}
	traced.attempted += plain.attempted
	traced.failed += plain.failed
	traced.problems = append(plain.problems, traced.problems...)
	if plain.headline > 0 {
		traced.setLayer("trace.overhead_pct", 100*(traced.headline-plain.headline)/plain.headline, "%")
	}
	// The untraced run's own numbers, such as the feeder's backpressure
	// wait, which the traced writer has no queue for.
	seen := map[string]bool{}
	for _, m := range traced.extra {
		seen[m.name] = true
	}
	for _, m := range plain.extra {
		if !seen[m.name] {
			traced.extra = append(traced.extra, m)
		}
	}
	path := filepath.Join(filepath.Dir(dir), "spans-"+p.workload+".csv")
	if err := tr.writeCSV(path); err != nil {
		fmt.Fprintln(p.log, "perfbench: writing spans:", err)
	}
	return traced, nil
}

func withSub(p params, name string) params {
	p.out = filepath.Join(p.out, name)
	return p
}

// printReport prints every metric as "name value unit", the host
// stamp, and the JSON summary as the last line.
func printReport(w io.Writer, p params, r *report) error {
	names, have := endToEnd, r.e2e
	if p.trace {
		names, have = perLayer, r.layer
	}
	fmt.Fprintf(w, "# %s\n", strings.Join(append([]string{hostStamp(p)}, r.stamp...), " "))
	summary := map[string]any{}
	for _, n := range names {
		m, ok := have[n]
		if !ok {
			return fmt.Errorf("workload %s did not report %s", p.workload, n)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("workload %s: %s is %v", p.workload, n, m.value)
		}
		fmt.Fprintf(w, "%-36s %14.6g %s\n", n, m.value, m.unit)
		summary[n] = map[string]any{"value": m.value, "unit": m.unit}
	}
	for _, m := range r.extra {
		fmt.Fprintf(w, "%-36s %14.6g %s\n", m.name, m.value, m.unit)
	}
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-36s %14.6g %s\n", "failed_ratio", ratio, "ratio")
	if r.attempted < 1 {
		return errors.New("no operation was attempted")
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   summary,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// hostStamp fingerprints the host and the run's inputs, so numbers from
// different hosts or settings are never compared by accident.
func hostStamp(p params) string {
	s := p.size
	return strings.Join([]string{
		"workload=" + p.workload,
		fmt.Sprintf("seed=%d", p.seed),
		fmt.Sprintf("seconds=%g", p.seconds.Seconds()),
		fmt.Sprintf("trace=%t", p.trace),
		"cpu=" + strings.ReplaceAll(cpuModel(), " ", "_"),
		fmt.Sprintf("nproc=%d", runtime.NumCPU()),
		fmt.Sprintf("gomaxprocs=%d", runtime.GOMAXPROCS(0)),
		"go=" + runtime.Version(),
		fmt.Sprintf("pool=%d", s.poolBundles),
		fmt.Sprintf("closed_loop_msgs=%d", closedLoopMsgs(p)),
		fmt.Sprintf("closed_loop_passes=%d", passes),
		fmt.Sprintf("serve_preload=%d", s.servePreload),
		fmt.Sprintf("serve_ingest_rate=%g", s.serveIngest),
		fmt.Sprintf("serve_query_rate=%g", s.serveQueries),
		fmt.Sprintf("catchup_msgs=%d+%d", s.catchupCkpt, s.catchupTail),
	}, " ")
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
