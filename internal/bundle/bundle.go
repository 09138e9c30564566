// Package bundle implements the provenance bundle of Definition 3: a
// non-overlapping group of related messages arranged in a parent-linked
// forest whose edges are the provenance trail, plus the indicant
// summary (hashtag/URL/keyword/user counts) that the summary index and
// the Eq. 1 scorer read.
//
// A bundle also carries Algorithm 2 — allocating a newly matched
// message to its best parent node inside the group.
package bundle

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"time"

	"provex/internal/metrics"
	"provex/internal/score"
	"provex/internal/tokenizer"
	"provex/internal/tweet"
)

// ID identifies a bundle for the life of the system, across memory and
// the disk back-end.
type ID uint64

// NoParent marks a node with no provenance parent (the root of a trail).
const NoParent int32 = -1

// Node is one message inside a bundle with its provenance edge: the
// index of its parent node, the Eq. 5 score of that edge, and the
// Table II connection type.
type Node struct {
	Doc    score.Doc
	Parent int32
	Score  float64
	Conn   score.ConnectionType
}

// Edge is a provenance connection in (parent, child) message-ID form —
// the unit the paper's accuracy/return evaluation counts.
type Edge struct {
	Parent tweet.ID
	Child  tweet.ID
}

// Bundle is Definition 3's message group. Not safe for concurrent use;
// the engine serialises access.
type Bundle struct {
	id    ID
	nodes []Node

	tagCounts map[string]int
	urlCounts map[string]int
	keyCounts map[string]int
	users     map[string]int

	// Node indexes: indicant term → ascending ids of the nodes carrying
	// it. They are the bundle-local analogue of the summary index and
	// make Algorithm 2 sublinear: the pruned Add scans only nodes
	// sharing an indicant with the incoming message instead of every
	// node (DESIGN.md §2g). Key sets mirror the count maps above, so the
	// count maps already pay the map-entry and string costs; the node
	// lists add metrics.NodeRefCost per reference.
	tagNodes  map[string][]int32
	urlNodes  map[string][]int32
	keyNodes  map[string][]int32
	userNodes map[string][]int32

	start, end time.Time // message-date extent (Algorithm 2 lines 8–13)
	lastUpdate time.Time // wall (simulated) time of last insertion
	closed     bool

	// timeOrdered reports that nodes were appended in non-decreasing
	// message-date order, which makes node id order equal time order.
	// The streaming ingest path always preserves this; it only breaks
	// under out-of-order replays (e.g. merges), where placement falls
	// back from the time-bounded scan to the mask-group scan
	// (prune.go).
	timeOrdered bool

	memBytes int64

	// scratch backs Add/AddObserved calls that arrive without an
	// engine-owned Scratch (tests, provops merges). Lazily allocated;
	// the engine hot path shares one Scratch across every bundle and
	// never touches this field.
	scratch *Scratch
}

// New creates an empty bundle.
func New(id ID) *Bundle {
	return &Bundle{
		id:        id,
		tagCounts: make(map[string]int),
		urlCounts: make(map[string]int),
		keyCounts: make(map[string]int),
		users:     make(map[string]int),
		tagNodes:  make(map[string][]int32),
		urlNodes:  make(map[string][]int32),
		keyNodes:  make(map[string][]int32),
		userNodes: make(map[string][]int32),
		memBytes:  metrics.BundleBase,

		timeOrdered: true,
	}
}

// Clone returns a deep copy of b that shares no mutable state with it,
// so a reader may keep the copy after releasing the lock that orders
// it with the writer still growing b. The messages themselves are
// shared: they are immutable once ingested.
func (b *Bundle) Clone() *Bundle {
	c := *b
	c.nodes = slices.Clone(b.nodes)
	c.tagCounts = maps.Clone(b.tagCounts)
	c.urlCounts = maps.Clone(b.urlCounts)
	c.keyCounts = maps.Clone(b.keyCounts)
	c.users = maps.Clone(b.users)
	c.tagNodes = cloneNodeIndex(b.tagNodes)
	c.urlNodes = cloneNodeIndex(b.urlNodes)
	c.keyNodes = cloneNodeIndex(b.keyNodes)
	c.userNodes = cloneNodeIndex(b.userNodes)
	c.scratch = nil
	return &c
}

func cloneNodeIndex(m map[string][]int32) map[string][]int32 {
	out := make(map[string][]int32, len(m))
	for k, ids := range m {
		out[k] = slices.Clone(ids)
	}
	return out
}

// ID returns the bundle identifier.
func (b *Bundle) ID() ID { return b.id }

// Size returns the number of messages in the bundle.
func (b *Bundle) Size() int { return len(b.nodes) }

// Closed reports whether the bundle stopped accepting messages
// (Section V-B's bundle size constraint).
func (b *Bundle) Closed() bool { return b.closed }

// Close marks the bundle closed. Closing is one-way.
func (b *Bundle) Close() { b.closed = true }

// StartTime and EndTime bound the message dates inside the bundle.
func (b *Bundle) StartTime() time.Time { return b.start }

// EndTime returns the newest message date.
func (b *Bundle) EndTime() time.Time { return b.end }

// LastUpdate returns when the bundle last absorbed a message — the
// date(B) of Equation 6.
func (b *Bundle) LastUpdate() time.Time { return b.lastUpdate }

// Nodes exposes the node slice read-only by convention (callers must
// not mutate). Index i is the node ID used in Parent links.
func (b *Bundle) Nodes() []Node { return b.nodes }

// MemBytes is the analytic memory footprint estimate of the bundle.
func (b *Bundle) MemBytes() int64 { return b.memBytes }

// score.BundleStats implementation — read by Eq. 1.

// TagCount reports how many messages carry the hashtag.
func (b *Bundle) TagCount(tag string) int { return b.tagCounts[tag] }

// URLCount reports how many messages carry the URL.
func (b *Bundle) URLCount(u string) int { return b.urlCounts[u] }

// KeywordCount reports how many messages carry the keyword.
func (b *Bundle) KeywordCount(k string) int { return b.keyCounts[k] }

// HasUser reports whether user posted inside the bundle.
func (b *Bundle) HasUser(u string) bool { return b.users[u] > 0 }

// LastDate implements score.BundleStats.
func (b *Bundle) LastDate() time.Time { return b.end }

// Indicants returns the distinct hashtags, URLs and keywords of the
// bundle — exactly the terms the summary index must drop when the
// bundle leaves memory.
func (b *Bundle) Indicants() (tags, urls, keys []string) {
	tags = mapKeys(b.tagCounts)
	urls = mapKeys(b.urlCounts)
	keys = mapKeys(b.keyCounts)
	return tags, urls, keys
}

func mapKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Add allocates doc inside the bundle per Algorithm 2: collect the
// candidate nodes sharing any indicant, connect to the best-scoring one
// (Eq. 5), and widen the bundle's time extent. Returns the index of the
// inserted node. Adding to a closed bundle panics — the engine checks
// Closed before routing.
func (b *Bundle) Add(w score.MessageWeights, doc score.Doc) int {
	n, _ := b.AddScratch(w, doc, nil, nil)
	return n
}

// ParentCandidate reports one Algorithm 2 evaluation to an observer:
// an existing node considered as parent for the incoming message, with
// the Eq. 5 score split into its Eq. 2–4, keyword and RT components.
type ParentCandidate struct {
	Node  int
	Msg   tweet.ID
	Conn  score.ConnectionType
	Parts score.MessageSimParts
}

// ParentObserver receives each considered parent during AddObserved.
type ParentObserver func(ParentCandidate)

// AddObserved is Add with a per-candidate observer for the decision
// tracer; obs may be nil (then it is exactly Add). The observed path
// uses score.MessageSimWithParts, whose Total is bit-identical to
// MessageSim, so observation never changes the chosen parent.
func (b *Bundle) AddObserved(w score.MessageWeights, doc score.Doc, obs ParentObserver) int {
	n, _ := b.AddScratch(w, doc, obs, nil)
	return n
}

// AddExhaustive is the reference Algorithm 2 implementation: score
// every node of the bundle against doc with Eq. 5. It is the
// specification the pruned path (AddScratch) is differentially tested
// against, and the implementation Config.Exhaustive selects. Observer
// semantics match AddObserved.
func (b *Bundle) AddExhaustive(w score.MessageWeights, doc score.Doc, obs ParentObserver) int {
	n, _ := b.addExhaustive(w, doc, obs)
	return n
}

func (b *Bundle) addExhaustive(w score.MessageWeights, doc score.Doc, obs ParentObserver) (int, PlaceStats) {
	if b.closed {
		panic("bundle: Add to closed bundle")
	}
	stats := PlaceStats{Nodes: len(b.nodes), Exhaustive: true}
	parent := NoParent
	best := 0.0
	conn := score.ConnNone
	for i := range b.nodes {
		c := score.Classify(b.nodes[i].Doc, doc)
		if c == score.ConnNone {
			continue
		}
		stats.Candidates++
		stats.Scored++
		var s float64
		if obs == nil {
			s = score.MessageSim(w, b.nodes[i].Doc, doc)
		} else {
			parts := score.MessageSimWithParts(w, b.nodes[i].Doc, doc)
			s = parts.Total
			obs(ParentCandidate{Node: i, Msg: b.nodes[i].Doc.Msg.ID, Conn: c, Parts: parts})
		}
		if s > best || (s == best && parent == NoParent) {
			best, parent, conn = s, int32(i), c
		}
	}
	node := Node{Doc: doc, Parent: parent, Score: best, Conn: conn}
	b.nodes = append(b.nodes, node)
	b.absorb(doc)
	return len(b.nodes) - 1, stats
}

// absorb merges doc's indicants into the summary and the node indexes
// and updates extent, freshness and the memory estimate. It must run
// immediately after the node is appended: the node-index entries use
// the id of the newest node.
func (b *Bundle) absorb(doc score.Doc) {
	m := doc.Msg
	id := int32(len(b.nodes) - 1)
	var added int64 = metrics.NodeBase + metrics.MessageBase +
		metrics.StringCost(m.User) + metrics.StringCost(m.Text)
	for _, h := range m.Hashtags {
		if b.tagCounts[h] == 0 {
			added += metrics.MapEntryCost + metrics.StringCost(h)
		}
		b.tagCounts[h]++
		added += appendNode(b.tagNodes, h, id)
	}
	for _, u := range m.URLs {
		if b.urlCounts[u] == 0 {
			added += metrics.MapEntryCost + metrics.StringCost(u)
		}
		b.urlCounts[u]++
		added += appendNode(b.urlNodes, u, id)
	}
	for _, k := range doc.Keywords {
		if b.keyCounts[k] == 0 {
			added += metrics.MapEntryCost + metrics.StringCost(k)
		}
		b.keyCounts[k]++
		added += appendNode(b.keyNodes, k, id)
	}
	if b.users[m.User] == 0 {
		added += metrics.MapEntryCost + metrics.StringCost(m.User)
	}
	b.users[m.User]++
	added += appendNode(b.userNodes, m.User, id)
	b.memBytes += added

	if b.start.IsZero() || m.Date.Before(b.start) {
		b.start = m.Date
	}
	if m.Date.Before(b.end) {
		b.timeOrdered = false
	} else {
		b.end = m.Date
	}
	if m.Date.After(b.lastUpdate) {
		b.lastUpdate = m.Date
	}
}

// Edges returns every provenance connection in the bundle.
func (b *Bundle) Edges() []Edge {
	var out []Edge
	for _, n := range b.nodes {
		if n.Parent == NoParent {
			continue
		}
		out = append(out, Edge{Parent: b.nodes[n.Parent].Doc.Msg.ID, Child: n.Doc.Msg.ID})
	}
	return out
}

// Roots returns the indices of nodes without parents — the origins of
// the bundle's provenance trails.
func (b *Bundle) Roots() []int {
	var out []int
	for i, n := range b.nodes {
		if n.Parent == NoParent {
			out = append(out, i)
		}
	}
	return out
}

// Children returns the node indices whose parent is i.
func (b *Bundle) Children(i int) []int {
	var out []int
	for j, n := range b.nodes {
		if n.Parent == int32(i) {
			out = append(out, j)
		}
	}
	return out
}

// SummaryWords returns the k most frequent summary terms — the "Summary
// Words" column of the paper's Figure 2 result list. Hashtags count
// double so topical tags float to the front like the paper's examples.
func (b *Bundle) SummaryWords(k int) []string {
	merged := make(map[string]int, len(b.keyCounts)+len(b.tagCounts))
	for t, c := range b.keyCounts {
		merged[t] += c
	}
	for t, c := range b.tagCounts {
		merged[t] += 2 * c
	}
	for u, c := range b.urlCounts {
		merged[u] += c
	}
	return tokenizer.TopTerms(merged, k)
}

// Render draws the provenance forest as indented text — the CLI/demo
// analogue of the paper's Figure 10 visualisation.
func (b *Bundle) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "bundle %d: %d messages, %s .. %s, summary=%v\n",
		b.id, len(b.nodes),
		b.start.Format("2006-01-02 15:04"), b.end.Format("2006-01-02 15:04"),
		b.SummaryWords(8))
	var rec func(i, depth int)
	rec = func(i, depth int) {
		n := b.nodes[i]
		label := ""
		if n.Parent != NoParent {
			label = fmt.Sprintf(" [%s %.2f]", n.Conn, n.Score)
		}
		fmt.Fprintf(&sb, "%s- %s%s\n", strings.Repeat("  ", depth+1), n.Doc.Msg, label)
		for _, c := range b.Children(i) {
			rec(c, depth+1)
		}
	}
	for _, r := range b.Roots() {
		rec(r, 0)
	}
	return sb.String()
}

// Validate checks the structural invariants of a bundle: parents
// precede children (the stream order guarantees trails point backwards
// in time), summary counts match node contents, and the time extent
// bounds every message. Used by tests and the storage round-trip
// self-check.
func (b *Bundle) Validate() error {
	tags := map[string]int{}
	urls := map[string]int{}
	keys := map[string]int{}
	users := map[string]int{}
	for i, n := range b.nodes {
		if n.Parent != NoParent && (n.Parent < 0 || int(n.Parent) >= i) {
			return fmt.Errorf("bundle %d: node %d has invalid parent %d", b.id, i, n.Parent)
		}
		m := n.Doc.Msg
		if m.Date.Before(b.start) || m.Date.After(b.end) {
			return fmt.Errorf("bundle %d: node %d date %v outside extent [%v, %v]",
				b.id, i, m.Date, b.start, b.end)
		}
		for _, h := range m.Hashtags {
			tags[h]++
		}
		for _, u := range m.URLs {
			urls[u]++
		}
		for _, k := range n.Doc.Keywords {
			keys[k]++
		}
		users[m.User]++
	}
	for name, pair := range map[string][2]map[string]int{
		"tag":  {tags, b.tagCounts},
		"url":  {urls, b.urlCounts},
		"key":  {keys, b.keyCounts},
		"user": {users, b.users},
	} {
		got, want := pair[1], pair[0]
		if len(got) != len(want) {
			return fmt.Errorf("bundle %d: %s summary has %d entries, nodes imply %d",
				b.id, name, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				return fmt.Errorf("bundle %d: %s %q count %d, nodes imply %d",
					b.id, name, k, got[k], v)
			}
		}
	}
	return nil
}
