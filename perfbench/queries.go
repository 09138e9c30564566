package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"net/url"
	"sort"
	"strconv"
	"time"

	"provex/internal/server"
	"provex/internal/tokenizer"
	"provex/internal/tweet"
)

// Endpoints, in provload's mix order.
const (
	kSearch = iota
	kProv
	kBundle
	kTrending
	numKinds
)

var kindNames = [numKinds]string{"search", "prov", "bundle", "trending"}

// The gated query metric is query_p50_geomean_ms, the geometric mean
// of the median answer times of /search, /prov and /trending: each
// endpoint's median moves it by the same share, however cheap the
// endpoint. On a shared 2-CPU host the per-endpoint percentiles, and
// the mean answer time, which /trending's tail dominates, moved by up
// to a quarter between runs of one seed while ingest ran beside the
// queries; the geometric mean of the medians moved least. Each
// endpoint's median, p90 and a deeper tail, and the mean over all
// three, are printed beside it with their sample counts. /bundle,
// asked only once ingest is quiescent, stays out of both.
var deepTail = [numKinds]struct {
	q    float64
	name string
}{{0.99, "p99"}, {0.98, "p98"}, {0.95, "p95"}, {0.95, "p95"}}

// request is one planned query; /bundle IDs are chosen at dispatch
// time from bundles earlier /prov and /trending answers returned.
type request struct {
	kind int
	q    string
}

// querySet draws query terms (hashtags and keywords) from a stream
// prefix. Two draws in three are frequency-weighted (inverse CDF over
// term occurrences, so popular terms dominate), the third is uniform
// over distinct terms (mostly rare ones). With unequal shares the
// median answer falls inside the weighted draws' cost range rather
// than on the edge between the two groups, where it would jump from
// run to run. Positions come from a golden-ratio sequence rather than
// random numbers and the same for every seed, so each seed's set asks
// the same quantiles of its stream's term ranking and per-seed query
// cost varies less.
type querySet struct {
	rng    *rand.Rand // shuffles request order
	byFreq []string   // distinct terms, most frequent first
	cum    []int      // cumulative occurrences along byFreq
	u      float64
	n      int
}

const golden = 0.6180339887498949

func newQuerySet(prefix []*tweet.Message, seed int64) *querySet {
	freq := map[string]int{}
	for _, m := range prefix {
		for _, t := range m.Hashtags {
			freq[t]++
		}
		for _, t := range tokenizer.Keywords(m.Text) {
			freq[t]++
		}
	}
	qs := &querySet{rng: rand.New(rand.NewSource(seed ^ 0x51ed))}
	for t := range freq {
		qs.byFreq = append(qs.byFreq, t)
	}
	sort.Slice(qs.byFreq, func(i, j int) bool {
		a, b := qs.byFreq[i], qs.byFreq[j]
		if freq[a] != freq[b] {
			return freq[a] > freq[b]
		}
		return a < b
	})
	total := 0
	for _, t := range qs.byFreq {
		total += freq[t]
		qs.cum = append(qs.cum, total)
	}
	return qs
}

func (qs *querySet) step() float64 {
	_, qs.u = math.Modf(qs.u + golden)
	qs.n++
	return qs.u
}

func (qs *querySet) byWeight(u float64) string {
	i := sort.SearchInts(qs.cum, int(u*float64(qs.cum[len(qs.cum)-1]))+1)
	return qs.byFreq[min(i, len(qs.byFreq)-1)]
}

func (qs *querySet) next() string {
	if len(qs.byFreq) == 0 {
		return "empty"
	}
	u := qs.step()
	if qs.n%3 == 0 {
		return qs.byFreq[int(u*float64(len(qs.byFreq)))]
	}
	return qs.byWeight(u)
}

// plan lays out requests in blocks holding exactly counts[k] of each
// kind per block, shuffled within the block, so every run has the
// same per-endpoint sample counts. The first block asks /prov and
// /trending before /bundle, so /bundle has IDs to choose from.
func (qs *querySet) plan(counts [numKinds]int, blocks int) []request {
	var out []request
	for b := 0; b < blocks; b++ {
		var block []request
		for k := 0; k < numKinds; k++ {
			for i := 0; i < counts[k]; i++ {
				block = append(block, request{kind: k})
			}
		}
		if b == 0 {
			sort.SliceStable(block, func(i, j int) bool { return firstOrder(block[i].kind) < firstOrder(block[j].kind) })
		} else {
			qs.rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		}
		for i := range block {
			if k := block[i].kind; k == kSearch || k == kProv {
				block[i].q = qs.next()
			}
		}
		out = append(out, block...)
	}
	return out
}

func firstOrder(k int) int {
	return [numKinds]int{2, 0, 3, 1}[k]
}

// call is a resolved request.
type call struct {
	kind int
	url  string
}

// sample is one answered request.
type sample struct {
	kind    int
	latency time.Duration
}

// client drives server.Server.ServeHTTP in process, one request at a
// time, and checks each answer: a 2xx status and a body that parses.
type client struct {
	srv *server.Server
	tb  *timedBackend // non-nil in traced runs
	tr  *tracer

	harvest   []uint64 // distinct top bundles of /prov and /trending answers
	harvested map[uint64]bool
	next      int // harvest slot the next /bundle request takes
	hits      [numKinds]int
	asked     [numKinds]int
	failures  int64
	firstErr  string
	samples   []sample
	calls     []call // the requests of the first quiescent pass, as sent
}

func newClient(srv *server.Server, tb *timedBackend, tr *tracer) *client {
	return &client{srv: srv, tb: tb, tr: tr, harvested: map[uint64]bool{}}
}

// resolve turns a planned request into a call. /bundle takes the IDs
// earlier answers returned in turn, so it must be resolved when it is
// sent, after the answers before it.
func (c *client) resolve(r request) call {
	switch r.kind {
	case kSearch:
		return call{kSearch, "/search?q=" + url.QueryEscape(r.q)}
	case kProv:
		return call{kProv, "/prov?q=" + url.QueryEscape(r.q)}
	case kBundle:
		id := uint64(1)
		if len(c.harvest) > 0 {
			id = c.harvest[c.next%len(c.harvest)]
			c.next++
		}
		return call{kBundle, "/bundle?id=" + strconv.FormatUint(id, 10)}
	default:
		return call{kTrending, "/trending"}
	}
}

// serve sends one call and returns the answer and when ServeHTTP
// started and returned.
func (c *client) serve(cl call, reqID int64) (w *httptest.ResponseRecorder, start, end time.Time) {
	req := httptest.NewRequest("GET", cl.url, nil)
	w = httptest.NewRecorder()
	var id int32 = -1
	if c.tb != nil {
		id = c.tr.begin("server."+kindNames[cl.kind], -1, reqID)
		c.tb.serving(id, reqID)
	}
	start = time.Now()
	c.srv.ServeHTTP(w, req)
	end = time.Now()
	c.tr.end(id)
	return w, start, end
}

// do sends one call and records it, timed from its send.
func (c *client) do(cl call, reqID int64) {
	w, start, end := c.serve(cl, reqID)
	c.record(cl, w, end.Sub(start))
}

// record checks an answer and keeps its latency.
func (c *client) record(cl call, w *httptest.ResponseRecorder, latency time.Duration) {
	c.samples = append(c.samples, sample{kind: cl.kind, latency: latency})
	c.asked[cl.kind]++
	if err := c.parse(cl.kind, w); err != nil {
		c.fail(cl, err)
	}
}

func (c *client) fail(cl call, err error) {
	c.failures++
	if c.firstErr == "" {
		c.firstErr = fmt.Sprintf("%s: %v", cl.url, err)
	}
}

func (c *client) parse(kind int, w *httptest.ResponseRecorder) error {
	if w.Code < 200 || w.Code > 299 {
		return fmt.Errorf("status %d: %s", w.Code, w.Body.String())
	}
	var body struct {
		Hits     []json.RawMessage     `json:"hits"`
		Bundles  []struct{ ID uint64 } `json:"bundles"`
		Trending []struct{ ID uint64 } `json:"trending"`
		ID       *uint64               `json:"id"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		return err
	}
	n := 0
	switch kind {
	case kSearch:
		n = len(body.Hits)
	case kProv:
		n = len(body.Bundles)
		if n > 0 {
			c.addHarvest(body.Bundles[0].ID)
		}
	case kBundle:
		if body.ID == nil {
			return fmt.Errorf("bundle answer without id")
		}
		n = 1
	case kTrending:
		n = len(body.Trending)
		if n > 0 {
			c.addHarvest(body.Trending[0].ID)
		}
	}
	if n > 0 {
		c.hits[kind]++
	}
	return nil
}

// addHarvest adds a bundle ID /bundle requests may ask for, once.
func (c *client) addHarvest(id uint64) {
	if !c.harvested[id] {
		c.harvested[id] = true
		c.harvest = append(c.harvest, id)
	}
}

// pass sends a quiescent replay's requests once each, back to back
// (closed loop), and times each answer on its own. The first pass
// resolves each request as it sends it, so /bundle asks for the
// bundles the answers before it returned; later passes send the calls
// the first one resolved. The collector runs between requests rather
// than during them (see collector): which answers a concurrent
// collection happens to slow changed their percentiles by half from
// run to run of the same input. The allocation and pause costs stay
// visible in the runtime.* per-layer metrics.
func (c *client) pass(plan []request) {
	gc := pauseCollector()
	defer gc.resume()
	if c.calls == nil {
		for _, r := range plan {
			gc.between()
			cl := c.resolve(r)
			c.calls = append(c.calls, cl)
			c.do(cl, int64(len(c.samples)))
		}
		return
	}
	for _, cl := range c.calls {
		gc.between()
		c.do(cl, int64(len(c.samples)))
	}
}

// byKind splits latencies per endpoint.
func (c *client) byKind() [numKinds][]time.Duration {
	var out [numKinds][]time.Duration
	for _, s := range c.samples {
		out[s.kind] = append(out[s.kind], s.latency)
	}
	return out
}

// reportLatency sets the per-endpoint end-to-end latency metrics and
// counts the requests and failed answers.
func (c *client) reportLatency(rep *report) {
	lat := c.byKind()
	var all []time.Duration
	logSum := 0.0
	for k := 0; k < numKinds; k++ {
		name := kindNames[k]
		rep.addExtra(name+"_p50_ms", ms(quantile(lat[k], 0.5)), "ms")
		rep.addExtra(name+"_p90_ms", ms(quantile(lat[k], 0.9)), "ms")
		rep.addExtra(name+"_"+deepTail[k].name+"_ms", ms(quantile(lat[k], deepTail[k].q)), "ms")
		rep.addExtra(name+"_samples", float64(len(lat[k])), "count")
		if k != kBundle {
			all = append(all, lat[k]...)
			logSum += math.Log(ms(quantile(lat[k], 0.5)))
		}
	}
	rep.setE2E("query_p50_geomean_ms", math.Exp(logSum/float64(numKinds-1)), "ms")
	rep.addExtra("query_mean_ms", ms(mean(all)), "ms")
	c.reportOps(rep)
}

// reportOps counts the requests and the failed answers.
func (c *client) reportOps(rep *report) {
	rep.ops(int64(len(c.samples)), c.failures)
	if c.failures > 0 {
		rep.problems = append(rep.problems, fmt.Sprintf("%d failed answers, first: %s", c.failures, c.firstErr))
	}
}

// latencies returns every answered request's latency so far.
func (c *client) latencies() []time.Duration {
	out := make([]time.Duration, len(c.samples))
	for i, s := range c.samples {
		out[i] = s.latency
	}
	return out
}

// nonempty is the share of /search and /prov answers with a hit: the
// guard against a query set that misses.
func (c *client) nonempty() float64 {
	asked := c.asked[kSearch] + c.asked[kProv]
	if asked == 0 {
		return 0
	}
	return float64(c.hits[kSearch]+c.hits[kProv]) / float64(asked)
}

// minNonempty is the least share of /search and /prov answers with a
// hit that a sound query set reaches.
const minNonempty = 0.5

// reportQueryLayers sets the per-layer server self time (ServeHTTP span
// minus the Backend span) and Backend span metrics of a traced run.
func reportQueryLayers(rep *report, tr *tracer, c *client) {
	total, self := tr.durations()
	for k := 0; k < numKinds; k++ {
		s := self["server."+kindNames[k]]
		rep.setLayer("server."+kindNames[k]+"_self_us_p50", us(quantile(s, 0.5)), "us")
		rep.setLayer("server."+kindNames[k]+"_self_us_p99", us(quantile(s, 0.99)), "us")
	}
	for _, name := range backendSpans {
		rep.setLayer(name+"_us_p50", us(quantile(total[name], 0.5)), "us")
		rep.setLayer(name+"_us_p99", us(quantile(total[name], 0.99)), "us")
	}
	rep.setLayer("query.nonempty_ratio", c.nonempty(), "ratio")
}

var backendSpans = []string{"textindex.search", "query.search_bundles", "query.bundle", "trending.detect"}

// replayPlan is the quiescent replay's request plan: exactly the
// sizing's per-endpoint counts, /bundle last, when every /prov and
// /trending answer has added its bundle to the harvest.
func replayPlan(qs *querySet, s sizing) []request {
	g := gcd(gcd(s.replaySearch, s.replayProv), s.replayTrend)
	counts := [numKinds]int{s.replaySearch / g, s.replayProv / g, 0, s.replayTrend / g}
	return append(qs.plan(counts, g), qs.plan([numKinds]int{kBundle: s.replayBundle}, 1)...)
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// replay is a workload's quiescent query measurement: the replay
// plan, sent in passes to backends that each hold the workload's final
// state. A workload spreads its passes over its run, onto each stack
// it builds with the same final state, and the latency metrics pool
// the samples of every pass. On a shared 2-CPU host the speed one
// pass sees drifts by a tenth or more over tens of seconds, so samples
// taken at several moments of the run give a median that moves less
// between runs than samples taken in one stretch. Each answer is
// timed once, as a user's request is, not repeated while its data sit
// in cache.
type replay struct {
	c    *client
	plan []request
	tr   *tracer
}

func newReplay(qs *querySet, s sizing, tr *tracer) *replay {
	return &replay{c: newClient(nil, nil, tr), plan: replayPlan(qs, s), tr: tr}
}

// target is a server in front of one backend, timed in traced runs.
type target struct {
	srv *server.Server
	tb  *timedBackend
}

func (r *replay) target(backend server.Backend, opts ...server.Option) target {
	var tb *timedBackend
	if r.tr != nil {
		tb = newTimedBackend(backend, r.tr)
		backend = tb
	}
	return target{server.New(backend, opts...), tb}
}

// pass sends the plan once to t.
func (r *replay) pass(t target, p params) {
	defer p.phase("query pass", time.Now())
	r.c.srv, r.c.tb = t.srv, t.tb
	r.c.pass(r.plan)
}

// report sets the end-to-end latency metrics over every pass; traced
// runs also set the per-layer query metrics.
func (r *replay) report(rep *report) {
	r.c.reportLatency(rep)
	rep.check(r.c.nonempty() > minNonempty, "only %.2f of /search and /prov answers had a hit", r.c.nonempty())
	if r.tr != nil {
		reportQueryLayers(rep, r.tr, r.c)
	}
}
