package pipeline_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/corpus"
	"repro/internal/pipeline"
	"repro/internal/playstore"
)

// perItemMeta exposes only Metadata, hiding any batch method of the
// source it wraps, so the pipeline takes the per-package path.
type perItemMeta struct{ inner pipeline.MetadataSource }

func (m perItemMeta) Metadata(ctx context.Context, pkg string) (playstore.Metadata, error) {
	return m.inner.Metadata(ctx, pkg)
}

// storeCounter counts the requests a store server answers, by endpoint.
type storeCounter struct {
	lookups, gets atomic.Int64
	inner         http.Handler
}

func (s *storeCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		s.lookups.Add(1)
	} else {
		s.gets.Add(1)
	}
	s.inner.ServeHTTP(w, r)
}

// shedItems answers every lookup through the real store, then replaces
// every nth item with a per-item 503.
func shedItems(real http.Handler, n int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			real.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		real.ServeHTTP(rec, r)
		var items []playstore.LookupItem
		if err := json.Unmarshal(rec.Body.Bytes(), &items); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		for i := 0; i < len(items); i += n {
			items[i] = playstore.LookupItem{Status: http.StatusServiceUnavailable}
		}
		json.NewEncoder(w).Encode(items)
	})
}

// failEveryOtherLookup fails every second lookup request as a whole.
func failEveryOtherLookup(real http.Handler) http.Handler {
	var mu sync.Mutex
	n := 0
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			mu.Lock()
			n++
			fail := n%2 == 0
			mu.Unlock()
			if fail {
				http.Error(w, "overloaded", http.StatusServiceUnavailable)
				return
			}
		}
		real.ServeHTTP(w, r)
	})
}

// TestBatchLookupMatchesPerItem runs the pipeline over the HTTP store
// client twice — as is, so it looks up whole feed chunks, and behind a
// wrapper that forces one request per package — and requires the same
// funnel, apps, quarantine list and rendered tables. Servers that shed
// single items or fail whole lookups must reach the same result through
// the per-package fallback.
func TestBatchLookupMatchesPerItem(t *testing.T) {
	c := chaosCorpus(t)
	real := playstore.NewServer(c).Handler()
	servers := map[string]http.Handler{
		"clean":          real,
		"per-item 503":   shedItems(real, 7),
		"failed lookups": failEveryOtherLookup(real),
	}
	for _, workers := range []int{1, 4} {
		run := func(t *testing.T, h http.Handler, batched bool) (*pipeline.Result, *storeCounter) {
			t.Helper()
			sc := &storeCounter{inner: h}
			srv := httptest.NewServer(sc)
			defer srv.Close()
			var meta pipeline.MetadataSource = playstore.NewClient(srv.URL, srv.Client())
			if !batched {
				meta = perItemMeta{meta}
			}
			p := pipeline.New(newChaosRepo(c), meta, pipeline.Config{
				MinDownloads: corpus.MinDownloads, UpdatedAfter: corpus.UpdateCutoff,
				Workers: workers,
			})
			res, err := p.Run(context.Background())
			if err != nil {
				t.Fatalf("run (batched=%v): %v", batched, err)
			}
			return res, sc
		}
		want, perItem := run(t, real, false)
		if perItem.lookups.Load() != 0 || perItem.gets.Load() != int64(want.Funnel.Snapshot) {
			t.Fatalf("per-item run made %d lookups and %d GETs, want 0 and %d",
				perItem.lookups.Load(), perItem.gets.Load(), want.Funnel.Snapshot)
		}
		wantTables := renderTables(want)
		for name, h := range servers {
			got, sc := run(t, h, true)
			if sc.lookups.Load() == 0 {
				t.Errorf("workers=%d %s: the batch path made no lookups", workers, name)
			}
			if name == "clean" && sc.gets.Load() != 0 {
				t.Errorf("workers=%d clean: %d per-package GETs, want 0", workers, sc.gets.Load())
			}
			if name != "clean" && sc.gets.Load() == 0 {
				t.Errorf("workers=%d %s: no per-package fallback", workers, name)
			}
			if got.Funnel != want.Funnel {
				t.Errorf("workers=%d %s: funnel %+v, want %+v", workers, name, got.Funnel, want.Funnel)
			}
			if !reflect.DeepEqual(got.Apps, want.Apps) {
				t.Errorf("workers=%d %s: apps differ from the per-item run", workers, name)
			}
			if !reflect.DeepEqual(got.Quarantined, want.Quarantined) {
				t.Errorf("workers=%d %s: quarantined %+v, want %+v", workers, name, got.Quarantined, want.Quarantined)
			}
			if tables := renderTables(got); tables != wantTables {
				t.Errorf("workers=%d %s: rendered tables differ:\n--- per-item ---\n%s\n--- batched ---\n%s",
					workers, name, wantTables, tables)
			}
		}
	}
}

// shortBatch is a batch source that answers with the wrong number of
// items; the pipeline must fall back to Metadata for the whole chunk.
type shortBatch struct{ chaosMeta }

func (*shortBatch) MetadataBatch(ctx context.Context, pkgs []string) ([]playstore.Metadata, []error) {
	return nil, nil
}

func TestMalformedBatchAnswerFallsBack(t *testing.T) {
	c := chaosCorpus(t)
	want := renderTables(cleanRun(t, c))
	p := pipeline.New(newChaosRepo(c), &shortBatch{chaosMeta{c: c}},
		pipeline.Config{MinDownloads: corpus.MinDownloads, UpdatedAfter: corpus.UpdateCutoff})
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := renderTables(res); got != want {
		t.Error("a malformed batch answer changed the result")
	}
}
