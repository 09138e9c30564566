package sumindex

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"provex/internal/score"
	"provex/internal/tweet"
)

// compareCandidates orders by descending hit count, then ascending
// bundle ID — the fetch rank contract Candidates documents.
func compareCandidates(a, b Candidate) int {
	if a.Hits != b.Hits {
		return b.Hits - a.Hits
	}
	switch {
	case a.ID < b.ID:
		return -1
	case a.ID > b.ID:
		return 1
	default:
		return 0
	}
}

// referenceCandidates is the straightforward fetch the merge must
// reproduce: accumulate packed per-class hits in a map over every
// traversed posting list, then comparison-sort by the rank contract.
func referenceCandidates(ix *Index, doc score.Doc) ([]Candidate, FetchInfo) {
	hits := map[BundleID]uint64{}
	var fi FetchInfo
	skip := func(c Class) {
		switch c {
		case ClassURL:
			fi.SkippedURL++
		case ClassTag:
			fi.SkippedTag++
		case ClassKeyword:
			fi.SkippedKey++
		case ClassUser:
			fi.SkippedRT = true
		}
	}
	add := func(c Class, term string, shift uint) {
		pl := ix.classes[c][term]
		if !ix.enabled[c] || (ix.maxFanout > 0 && len(pl) > ix.maxFanout) {
			skip(c)
			return
		}
		for _, p := range pl {
			hits[p.ID] += 1 << shift
		}
		fi.Postings += len(pl)
	}
	m := doc.Msg
	for _, h := range m.Hashtags {
		add(ClassTag, h, shiftTag)
	}
	for _, u := range m.URLs {
		add(ClassURL, u, shiftURL)
	}
	for _, k := range doc.Keywords {
		add(ClassKeyword, k, shiftKey)
	}
	if m.IsRT() {
		add(ClassUser, m.RTOf, shiftRT)
	}
	if len(hits) == 0 {
		return nil, fi
	}
	out := make([]Candidate, 0, len(hits))
	for id, packed := range hits {
		c := Candidate{
			ID:      id,
			URLHits: uint16(packed >> shiftURL),
			TagHits: uint16(packed >> shiftTag),
			KeyHits: uint16(packed >> shiftKey),
			RTHit:   packed>>shiftRT != 0,
		}
		c.Hits = int(c.URLHits) + int(c.TagHits) + int(c.KeyHits)
		if c.RTHit {
			c.Hits++
		}
		out = append(out, c)
	}
	slices.SortFunc(out, compareCandidates)
	return out, fi
}

// Small per-class vocabularies keep posting lists long and overlapping,
// so probes merge many lists that share bundles.
var (
	churnTags  = []string{"redsox", "yankees", "news", "samoa", "tsunami", "game"}
	churnURLs  = []string{"bit.ly/a", "bit.ly/b", "bit.ly/c", "tinyurl.com/x"}
	churnKeys  = []string{"game", "lester", "ovation", "quake", "wave", "vote", "poll", "red"}
	churnUsers = []string{"ann", "bob", "cat", "dee", "eve"}
)

// byteStream hands out the fuzz input one byte at a time, then zeros.
type byteStream struct{ data []byte }

func (s *byteStream) next() int {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return int(b)
}

func (s *byteStream) pick(vocab []string) string { return vocab[s.next()%len(vocab)] }

// terms draws up to max terms from vocab; repeats are kept, so one
// message can carry the same term twice.
func (s *byteStream) terms(vocab []string, max int) []string {
	n := s.next() % (max + 1)
	var out []string
	for i := 0; i < n; i++ {
		out = append(out, s.pick(vocab))
	}
	return out
}

func (s *byteStream) doc(id tweet.ID) score.Doc {
	m := &tweet.Message{
		ID:       id,
		User:     s.pick(churnUsers),
		Hashtags: s.terms(churnTags, 3),
		URLs:     s.terms(churnURLs, 2),
	}
	if s.next()%3 == 0 {
		m.RTOf = s.pick(churnUsers)
	}
	return score.Doc{Msg: m, Keywords: s.terms(churnKeys, 5)}
}

// distinct returns the set of terms in ts, for Forget.
func distinct(ts []string) []string {
	out := slices.Clone(ts)
	slices.Sort(out)
	return slices.Compact(out)
}

// runCandidateChurn interprets data as a program of Observe, Forget,
// class toggles, fanout-cap changes and probes against one index, on
// bundle IDs drawn from a shard's (IDStart, IDStride) progression, and
// checks every probe's Candidates and LastFetch against the reference.
func runCandidateChurn(t *testing.T, data []byte) {
	t.Helper()
	s := &byteStream{data: data}
	idStart, idStride := BundleID(1+s.next()%4), BundleID(1+s.next()%4)
	const nBundles = 48
	bundleID := func() BundleID { return idStart + BundleID(s.next()%nBundles)*idStride }

	ix := New()
	// observed records, per bundle, every indicant Observe registered:
	// what Forget must be given to drop the bundle entirely.
	type indicants struct{ tags, urls, keys, users []string }
	observed := map[BundleID]*indicants{}
	var msg tweet.ID
	for steps := 0; len(s.data) > 0 && steps < 4096; steps++ {
		msg++
		switch op := s.next() % 10; {
		case op < 5:
			id, d := bundleID(), s.doc(msg)
			ix.Observe(id, d)
			in := observed[id]
			if in == nil {
				in = &indicants{}
				observed[id] = in
			}
			in.tags = append(in.tags, d.Msg.Hashtags...)
			in.urls = append(in.urls, d.Msg.URLs...)
			in.keys = append(in.keys, d.Keywords...)
			in.users = append(in.users, d.Msg.User)
		case op == 5:
			id := bundleID()
			if in := observed[id]; in != nil {
				ix.Forget(id, distinct(in.tags), distinct(in.urls), distinct(in.keys), distinct(in.users))
				delete(observed, id)
			}
		case op == 6:
			ix.SetEnabled(Class(s.next()%int(numClasses)), s.next()%4 != 0)
		case op == 7:
			ix.SetMaxFanout(s.next() % 24)
		default:
			d := s.doc(msg)
			want, wantFetch := referenceCandidates(ix, d)
			got := ix.Candidates(d)
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: Candidates(%+v, keys %v)\n got %v\nwant %v", steps, *d.Msg, d.Keywords, got, want)
			}
			if fi := ix.LastFetch(); fi != wantFetch {
				t.Fatalf("step %d: LastFetch = %+v, want %+v", steps, fi, wantFetch)
			}
		}
	}
}

// TestCandidatesMatchReference is the lossless property of the merge
// fetch: over randomized Observe/Forget churn with duplicate terms, RT
// probes, disabled classes, fanout caps and shard-stride IDs, every
// Candidates call equals the map-and-sort reference, LastFetch included.
func TestCandidatesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for seed := 0; seed < 200; seed++ {
		data := make([]byte, 256+rng.Intn(4096))
		rng.Read(data)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runCandidateChurn(t, data) })
	}
}

func FuzzCandidates(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{3, 2, 0, 9, 1, 1, 1, 1, 8, 5, 5, 5, 5, 5, 5, 0, 4})
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 4; i++ {
		data := make([]byte, 96)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(runCandidateChurn)
}

// candidateBenchIndex builds an index shaped like the ingest workload's
// at steady state: 3000 bundles whose keyword lists run to hundreds of
// postings, so a probe with several common terms merges lists into
// roughly 400 candidates.
func candidateBenchIndex() (*Index, score.Doc) {
	ix := New()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		m := &tweet.Message{
			ID:       tweet.ID(i + 1),
			User:     fmt.Sprintf("user%d", rng.Intn(2000)),
			Hashtags: []string{fmt.Sprintf("tag%d", rng.Intn(400))},
		}
		keys := []string{
			fmt.Sprintf("word%d", rng.Intn(400)),
			fmt.Sprintf("word%d", rng.Intn(400)),
			fmt.Sprintf("rare%d", rng.Intn(5000)),
		}
		ix.Observe(BundleID(1+i%3000), score.Doc{Msg: m, Keywords: keys})
	}
	probe := score.Doc{
		Msg: &tweet.Message{
			ID: 99999, User: "p", RTOf: "user7",
			Hashtags: []string{"tag3", "tag11"},
		},
		Keywords: []string{"word1", "word2", "word3", "rare17"},
	}
	return ix, probe
}

func BenchmarkCandidates(b *testing.B) {
	ix, probe := candidateBenchIndex()
	n := len(ix.Candidates(probe))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ix.Candidates(probe)
	}
	b.ReportMetric(float64(n), "cands/op")
	b.ReportMetric(float64(ix.LastFetch().Postings), "postings/op")
}

// TestCandidatesZeroAlloc pins the hot path: once the scratch buffers
// have grown to a probe's size, Candidates allocates nothing.
func TestCandidatesZeroAlloc(t *testing.T) {
	ix, probe := candidateBenchIndex()
	if n := len(ix.Candidates(probe)); n < 200 {
		t.Fatalf("probe surfaced %d candidates, want a realistic few hundred", n)
	}
	if allocs := testing.AllocsPerRun(100, func() { ix.Candidates(probe) }); allocs != 0 {
		t.Errorf("Candidates allocates %.1f times per call at steady state, want 0", allocs)
	}
}
