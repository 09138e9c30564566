package sumindex

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"provex/internal/score"
	"provex/internal/tokenizer"
	"provex/internal/tweet"
)

var base = time.Date(2009, 9, 1, 0, 0, 0, 0, time.UTC)

func doc(id tweet.ID, user, text string) score.Doc {
	m := tweet.Parse(id, user, base.Add(time.Duration(id)*time.Minute), text)
	return score.Doc{Msg: m, Keywords: tokenizer.Keywords(text)}
}

func TestObserveAndCandidates(t *testing.T) {
	ix := New()
	ix.Observe(1, doc(1, "a", "game on #redsox http://bit.ly/x"))
	ix.Observe(2, doc(2, "b", "other topic #politics"))

	cands := ix.Candidates(doc(3, "c", "watching #redsox tonight"))
	if len(cands) != 1 || cands[0].ID != 1 {
		t.Fatalf("Candidates = %v, want bundle 1", cands)
	}
	if cands[0].Hits < 1 {
		t.Errorf("Hits = %d, want >= 1", cands[0].Hits)
	}
}

func TestCandidatesRankedByHits(t *testing.T) {
	ix := New()
	ix.Observe(1, doc(1, "a", "#redsox only"))
	ix.Observe(2, doc(2, "b", "#redsox #yankees http://bit.ly/x game"))

	cands := ix.Candidates(doc(3, "c", "game #redsox #yankees http://bit.ly/x"))
	if len(cands) != 2 {
		t.Fatalf("Candidates = %v, want 2", cands)
	}
	if cands[0].ID != 2 {
		t.Errorf("best candidate = %d, want 2 (more shared indicants)", cands[0].ID)
	}
	if cands[0].Hits <= cands[1].Hits {
		t.Errorf("hits not descending: %v", cands)
	}
}

func TestCandidatesRTUserClass(t *testing.T) {
	ix := New()
	ix.Observe(5, doc(1, "amaliebenjamin", "lester ovation"))
	rt := doc(2, "fan", "so classy RT @AmalieBenjamin: lester ovation")
	cands := ix.Candidates(rt)
	found := false
	for _, c := range cands {
		if c.ID == 5 {
			found = true
		}
	}
	if !found {
		t.Errorf("RT did not surface the author's bundle: %v", cands)
	}
}

func TestCandidatesEmpty(t *testing.T) {
	ix := New()
	if got := ix.Candidates(doc(1, "a", "anything #tag")); got != nil {
		t.Errorf("empty index returned %v", got)
	}
	ix.Observe(1, doc(1, "a", "#redsox"))
	if got := ix.Candidates(doc(2, "b", "ugh")); got != nil {
		t.Errorf("indicant-free message returned %v", got)
	}
}

func TestForget(t *testing.T) {
	ix := New()
	d := doc(1, "a", "game #redsox http://bit.ly/x")
	ix.Observe(1, d)
	ix.Observe(2, doc(2, "b", "more #redsox"))

	// The keyword set of the observed doc includes "redsox" (the
	// tokenizer keeps hashtag words as text tokens).
	ix.Forget(1, []string{"redsox"}, []string{"bit.ly/x"}, d.Keywords, []string{"a"})
	cands := ix.Candidates(doc(3, "c", "#redsox game http://bit.ly/x"))
	for _, c := range cands {
		if c.ID == 1 {
			t.Fatalf("forgotten bundle still a candidate: %v", cands)
		}
	}
	if len(cands) != 1 || cands[0].ID != 2 {
		t.Errorf("Candidates = %v, want only bundle 2", cands)
	}
	// Forgetting again is a no-op.
	ix.Forget(1, []string{"redsox"}, nil, nil, nil)
}

func TestMemoryAccounting(t *testing.T) {
	ix := New()
	if ix.MemBytes() != 0 {
		t.Fatalf("fresh index mem = %d", ix.MemBytes())
	}
	d := doc(1, "a", "game #redsox http://bit.ly/x")
	ix.Observe(1, d)
	grown := ix.MemBytes()
	if grown <= 0 {
		t.Fatal("Observe did not grow memory estimate")
	}
	ix.Forget(1, d.Msg.Hashtags, d.Msg.URLs, d.Keywords, []string{"a"})
	if got := ix.MemBytes(); got != 0 {
		t.Errorf("mem after full forget = %d, want 0", got)
	}
}

func TestDuplicateObserveCounts(t *testing.T) {
	ix := New()
	ix.Observe(1, doc(1, "a", "#redsox"))
	ix.Observe(1, doc(2, "b", "#redsox again"))
	p := ix.Postings(ClassTag, "redsox")
	if len(p) != 1 || p[0].ID != 1 || p[0].Count != 2 {
		t.Errorf("postings = %v, want [{1 2}]", p)
	}
	if got := ix.PostingCount(ClassTag, "redsox", 1); got != 2 {
		t.Errorf("PostingCount = %d, want 2", got)
	}
	if got := ix.PostingCount(ClassTag, "redsox", 9); got != 0 {
		t.Errorf("PostingCount(absent) = %d, want 0", got)
	}
	if ix.Terms(ClassTag) != 1 {
		t.Errorf("Terms = %d, want 1", ix.Terms(ClassTag))
	}
}

func TestSetEnabled(t *testing.T) {
	ix := New()
	ix.Observe(1, doc(1, "a", "shared keyword story"))
	if got := ix.Candidates(doc(2, "b", "keyword story overlap")); len(got) == 0 {
		t.Fatal("keyword class should surface candidate")
	}
	ix.SetEnabled(ClassKeyword, false)
	if got := ix.Candidates(doc(3, "c", "keyword story overlap")); got != nil {
		t.Errorf("disabled keyword class still surfaced %v", got)
	}
	ix.SetEnabled(ClassKeyword, true)
	if got := ix.Candidates(doc(4, "d", "keyword story overlap")); len(got) == 0 {
		t.Error("re-enabled keyword class returned nothing")
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{
		ClassTag: "hashtag", ClassURL: "url", ClassKeyword: "keyword", ClassUser: "user",
	} {
		if c.String() != want {
			t.Errorf("Class(%d).String() = %q, want %q", c, c.String(), want)
		}
	}
}

func TestStats(t *testing.T) {
	ix := New()
	ix.Observe(1, doc(1, "a", "#redsox game"))
	s := ix.Stats()
	if !strings.Contains(s, "hashtag=1") || !strings.Contains(s, "mem=") {
		t.Errorf("Stats = %q", s)
	}
}

// Property: Observe followed by Forget of the same indicants always
// restores memory to its prior value and removes the bundle from every
// candidate list.
func TestObserveForgetInverseProperty(t *testing.T) {
	texts := []string{
		"game on #redsox", "breaking http://bit.ly/q #news", "plain words here",
		"#a #b #c multi tag", "RT @someone: shared thing", "ugh",
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ix := New()
		// Background noise owned by bundle 99.
		ix.Observe(99, doc(1000, "z", texts[rng.Intn(len(texts))]))
		before := ix.MemBytes()

		d := doc(1, "u", texts[rng.Intn(len(texts))])
		ix.Observe(7, d)
		var users []string
		users = append(users, d.Msg.User)
		ix.Forget(7, d.Msg.Hashtags, d.Msg.URLs, d.Keywords, users)

		if ix.MemBytes() != before {
			return false
		}
		for _, c := range ix.Candidates(d) {
			if c.ID == 7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: candidate hit counts never exceed the number of indicants
// the probing message carries.
func TestCandidateHitBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ix := New()
		for i := 0; i < 20; i++ {
			ix.Observe(BundleID(rng.Intn(5)), doc(tweet.ID(i+1), "u",
				"word"+string(rune('a'+rng.Intn(4)))+" #tag"+string(rune('a'+rng.Intn(3)))))
		}
		probe := doc(100, "p", "worda wordb #taga #tagb")
		nIndicants := len(probe.Msg.Hashtags) + len(probe.Msg.URLs) + len(probe.Keywords)
		for _, c := range ix.Candidates(probe) {
			if c.Hits > nIndicants {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMaxFanoutCapsCandidateFetch(t *testing.T) {
	ix := New()
	// Six distinct bundles all carry the same hashtag.
	for i := 1; i <= 6; i++ {
		ix.Observe(BundleID(i), doc(tweet.ID(i), "u", "#everywhere item"))
	}
	probe := doc(99, "p", "#everywhere")
	if got := ix.Candidates(probe); len(got) != 6 {
		t.Fatalf("uncapped Candidates = %d, want 6", len(got))
	}
	ix.SetMaxFanout(5)
	if got := ix.Candidates(probe); got != nil {
		t.Errorf("capped Candidates = %v, want nil (posting length 6 > cap 5)", got)
	}
	// A posting at exactly the cap still serves.
	ix.SetMaxFanout(6)
	if got := ix.Candidates(probe); len(got) != 6 {
		t.Errorf("cap==len Candidates = %d, want 6", len(got))
	}
	// Cap removal restores full fetch.
	ix.SetMaxFanout(0)
	if got := ix.Candidates(probe); len(got) != 6 {
		t.Errorf("uncapped again = %d, want 6", len(got))
	}
}

// TestCandidatePerClassHits verifies the packed per-class split the
// Eq. 1 upper bound consumes: class counts must sum to Hits and match
// the terms each bundle actually carries.
func TestCandidatePerClassHits(t *testing.T) {
	ix := New()
	ix.Observe(1, doc(1, "ann", "game on #redsox #sox http://bit.ly/x"))
	ix.Observe(2, doc(2, "bob", "other talk #redsox"))

	cands := ix.Candidates(doc(3, "cat", "RT @ann: game on #redsox #sox http://bit.ly/x"))
	if len(cands) != 2 {
		t.Fatalf("Candidates = %v, want 2", cands)
	}
	byID := map[BundleID]Candidate{}
	for _, c := range cands {
		if got := int(c.URLHits) + int(c.TagHits) + int(c.KeyHits) + b2i(c.RTHit); got != c.Hits {
			t.Errorf("bundle %d: class hits sum %d != Hits %d", c.ID, got, c.Hits)
		}
		byID[c.ID] = c
	}
	c1 := byID[1]
	if c1.URLHits != 1 || c1.TagHits != 2 || !c1.RTHit {
		t.Errorf("bundle 1 = %+v, want url=1 tag=2 rt=true", c1)
	}
	c2 := byID[2]
	if c2.URLHits != 0 || c2.TagHits != 1 || c2.RTHit {
		t.Errorf("bundle 2 = %+v, want url=0 tag=1 rt=false", c2)
	}
	if fi := ix.LastFetch(); fi.SkippedURL != 0 || fi.SkippedTag != 0 || fi.SkippedKey != 0 || fi.SkippedRT {
		t.Errorf("LastFetch = %+v, want no skipped lists", ix.LastFetch())
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestLastFetchSlack verifies that every list the fetch does not
// traverse — fanout-cut or class-disabled — is reported as slack, which
// is what keeps the Eq. 1 upper bound sound for those candidates.
func TestLastFetchSlack(t *testing.T) {
	ix := New()
	for i := 1; i <= 4; i++ {
		ix.Observe(BundleID(i), doc(tweet.ID(i), "ann", "#hot stuff"))
	}
	ix.Observe(5, doc(5, "bob", "#cool stuff"))

	// #hot's posting list (4 bundles) exceeds the cap; #cool and bob's
	// user list (1 each) do not.
	ix.SetMaxFanout(2)
	cands := ix.Candidates(doc(9, "cat", "RT @bob: #hot #cool things"))
	fi := ix.LastFetch()
	if fi.SkippedTag != 1 {
		t.Errorf("SkippedTag = %d, want 1 (#hot cut by fanout)", fi.SkippedTag)
	}
	if fi.SkippedRT {
		t.Errorf("SkippedRT = true, want false (user list under cap)")
	}
	for _, c := range cands {
		if c.ID == 5 && c.TagHits != 1 {
			t.Errorf("bundle 5 TagHits = %d, want 1 (#cool)", c.TagHits)
		}
	}

	// A disabled class skips every term of that class.
	ix.SetMaxFanout(0)
	ix.SetEnabled(ClassKeyword, false)
	ix.Candidates(doc(10, "dee", "stuff things #cool"))
	if fi := ix.LastFetch(); fi.SkippedKey == 0 {
		t.Errorf("LastFetch = %+v, want SkippedKey > 0 with keyword class disabled", fi)
	}
	ix.SetEnabled(ClassUser, false)
	ix.Candidates(doc(11, "eve", "RT @ann: #hot"))
	if fi := ix.LastFetch(); !fi.SkippedRT {
		t.Errorf("LastFetch = %+v, want SkippedRT with user class disabled", fi)
	}
}
