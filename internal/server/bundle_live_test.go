package server

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"provex/internal/core"
	"provex/internal/pipeline"
	"provex/internal/query"
	"provex/internal/shard"
	"provex/internal/tweet"
)

// liveShell is a concurrent ingest shell serving as a Backend.
type liveShell struct {
	Backend
	submit func(*tweet.Message) error
	stop   func() error
}

// TestBundleWhileWriterGrowsIt hammers /bundle on the bundle the live
// writer keeps growing. The handler renders the bundle after the
// backend's read lock is released, so Backend.Bundle must hand it a
// copy: rendering the live bundle races the writer (the race detector
// reports it; without it the process can die with "concurrent map
// iteration and map write" in SummaryWords).
func TestBundleWhileWriterGrowsIt(t *testing.T) {
	q := query.DefaultOptions()
	shells := map[string]func(t *testing.T) liveShell{
		"pipeline": func(t *testing.T) liveShell {
			proc := query.New(core.New(core.PartialIndexConfig(500), nil, nil), q)
			s := pipeline.New(proc, pipeline.Options{Buffer: 16})
			s.Start()
			return liveShell{s, s.Submit, s.Stop}
		},
		"shard": func(t *testing.T) liveShell {
			e, err := shard.New(core.PartialIndexConfig(500), shard.Options{Shards: 2, Batch: 4, Query: &q}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			s, err := shard.NewService(e, nil, shard.ServiceOptions{Buffer: 16})
			if err != nil {
				t.Fatal(err)
			}
			s.Start()
			return liveShell{s, s.Submit, s.Stop}
		},
	}
	for name, open := range shells {
		t.Run(name, func(t *testing.T) { hammerGrowingBundle(t, open(t)) })
	}
}

func hammerGrowingBundle(t *testing.T, sh liveShell) {
	base := time.Date(2009, 9, 17, 2, 0, 0, 0, time.UTC)
	msg := func(i int) *tweet.Message {
		return tweet.Parse(tweet.ID(i+1), fmt.Sprintf("fan%d", i%50), base.Add(time.Duration(i)*time.Second),
			fmt.Sprintf("lester ovation #growing crowd %d", i%7))
	}
	const warm, n = 20, 3000
	for i := 0; i < warm; i++ {
		if err := sh.submit(msg(i)); err != nil {
			t.Fatal(err)
		}
	}
	var id uint64
	for deadline := time.Now().Add(10 * time.Second); id == 0; {
		if hits := sh.SearchBundles("lester ovation growing", 1); len(hits) > 0 {
			id = uint64(hits[0].ID)
		} else if time.Now().After(deadline) {
			t.Fatal("the growing bundle never became searchable")
		} else {
			time.Sleep(time.Millisecond)
		}
	}

	srv := New(sh)
	done := make(chan struct{})
	var wg sync.WaitGroup
	sizes := make([][2]int, 2) // per reader: first and last size seen
	for r := range sizes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				w := httptest.NewRecorder()
				srv.ServeHTTP(w, httptest.NewRequest("GET", fmt.Sprintf("/bundle?id=%d", id), nil))
				if w.Code != 200 {
					t.Errorf("/bundle?id=%d = %d: %s", id, w.Code, w.Body)
					return
				}
				var body struct {
					Size  int               `json:"size"`
					Nodes []json.RawMessage `json:"nodes"`
				}
				if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || body.Size != len(body.Nodes) {
					t.Errorf("/bundle?id=%d: size %d, %d nodes, err %v", id, body.Size, len(body.Nodes), err)
					return
				}
				if sizes[r][0] == 0 {
					sizes[r][0] = body.Size
				}
				sizes[r][1] = body.Size
			}
		}()
	}
	for i := warm; i < n; i++ {
		if err := sh.submit(msg(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sh.stop(); err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()
	for r, s := range sizes {
		if s[1] <= s[0] {
			t.Errorf("reader %d saw the bundle at %d then %d nodes: the writer never grew it under the readers", r, s[0], s[1])
		}
	}
}
