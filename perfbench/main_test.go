package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"provex/internal/core"
	"provex/internal/query"
)

// tinySizing runs every workload in about a second.
func tinySizing() sizing {
	return sizing{
		msgsPerSecond: 3000,
		poolBundles:   300,
		ckptEvery:     400,
		setups:        2,
		preloadSetups: 2,
		queryPrefix:   2000,
		servePreload:  600,
		serveIngest:   400,
		serveQueries:  200,
		catchupCkpt:   500,
		catchupTail:   500,
		replaySearch:  40,
		replayProv:    20,
		replayBundle:  20,
		replayTrend:   20,
	}
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

// TestWorkloads runs every workload untraced and traced at tiny scale:
// every output check passes, every metric BENCHMARK.json declares
// prints with its declared unit, and the last line is the JSON summary
// with exactly the declared metrics.
func TestWorkloads(t *testing.T) {
	declE2E, declLayer := declared(t)
	for _, w := range []string{"ingest", "sharded", "serve", "catchup"} {
		for _, traced := range []bool{false, true} {
			name := w
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				p := params{workload: w, seed: 3, seconds: 300 * time.Millisecond, trace: traced, out: t.TempDir(), size: tinySizing(), log: io.Discard}
				rep, err := execute(p)
				if err != nil {
					t.Fatal(err)
				}
				if rep.failed != 0 {
					t.Fatalf("%d of %d checks failed: %v", rep.failed, rep.attempted, rep.problems)
				}
				var buf bytes.Buffer
				if err := printReport(&buf, p, rep); err != nil {
					t.Fatal(err)
				}
				want, decl := endToEnd, declE2E
				if traced {
					want, decl = perLayer, declLayer
				}
				if len(want) != len(decl) {
					t.Errorf("BENCHMARK.json declares %d metrics, the command reports %d", len(decl), len(want))
				}
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				printed := map[string]string{}
				for _, l := range lines[:len(lines)-1] {
					if f := strings.Fields(l); len(f) == 3 {
						printed[f[0]] = f[2]
					}
				}
				var sum struct {
					Correct   bool
					Attempted int64
					Failed    int64
					Metrics   map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
					t.Fatalf("last line is not the JSON summary: %v", err)
				}
				if !sum.Correct || sum.Failed != 0 || sum.Attempted < 1 {
					t.Fatalf("summary: correct=%v failed=%d attempted=%d", sum.Correct, sum.Failed, sum.Attempted)
				}
				if len(sum.Metrics) != len(want) {
					t.Errorf("summary has %d metrics, want %d", len(sum.Metrics), len(want))
				}
				for _, n := range want {
					m, ok := sum.Metrics[n]
					if !ok || m.Unit == "" {
						t.Errorf("summary lacks %s with a unit", n)
					}
					if printed[n] != m.Unit || decl[n] != m.Unit {
						t.Errorf("%s: printed unit %q, summary %q, BENCHMARK.json %q", n, printed[n], m.Unit, decl[n])
					}
				}
				if _, ok := printed["failed_ratio"]; !ok {
					t.Error("failed_ratio not printed")
				}
			})
		}
	}
}

// TestFailedCheckExitsNonZero: a workload whose output check fails
// still prints its summary, with correct false, and the command exits 1.
func TestFailedCheckExitsNonZero(t *testing.T) {
	workloads["broken"] = func(p params, rep *report, tr *tracer) error {
		for _, n := range endToEnd {
			rep.setE2E(n, 1, "s")
		}
		rep.check(sameState(core.Stats{Messages: 1}, core.Stats{Messages: 2}) == nil, "states differ")
		return nil
	}
	defer delete(workloads, "broken")
	var out bytes.Buffer
	code := run([]string{"--workload", "broken", "--out", t.TempDir()}, &out, io.Discard)
	if code == 0 {
		t.Fatal("exit code 0 after a failed check")
	}
	if !strings.Contains(out.String(), `"correct":false`) {
		t.Fatalf("summary does not report the failure:\n%s", out.String())
	}
}

func TestQuantile(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 1000; i++ {
		ds = append(ds, time.Duration(i))
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 500}, {0.95, 950}, {0.99, 990}, {1, 1000}} {
		if got := quantile(ds, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// TestReplayBundleIDs: a fresh replay asks /bundle for the bundles
// its own /prov and /trending answers returned, not for one fixed
// fallback ID, and a later pass sends the same calls again.
func TestReplayBundleIDs(t *testing.T) {
	msgs := stream(5, 2000)
	proc := query.New(core.New(core.FullIndexConfig(), nil, nil), query.DefaultOptions())
	for _, m := range msgs {
		proc.Insert(m)
	}
	rp := newReplay(newQuerySet(msgs, 5), tinySizing(), nil)
	p := params{log: io.Discard}
	rp.pass(rp.target(proc), p)
	first := append([]call(nil), rp.c.calls...)
	rp.pass(rp.target(proc), p)
	ids := map[string]bool{}
	for _, cl := range first {
		if cl.kind == kBundle {
			ids[cl.url] = true
		}
	}
	if len(ids) < 2 {
		t.Fatalf("replayed /bundle requests asked for %d distinct bundles: %v", len(ids), ids)
	}
	if len(rp.c.samples) != 2*len(first) || len(rp.c.calls) != len(first) {
		t.Fatalf("two passes of %d calls left %d samples and %d calls", len(first), len(rp.c.samples), len(rp.c.calls))
	}
	if rp.c.failures != 0 {
		t.Fatalf("%d failed answers, first: %s", rp.c.failures, rp.c.firstErr)
	}
}
