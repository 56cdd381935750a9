package playstore

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/corpus"
	"repro/internal/retry"
)

// mixedPackages returns n names cycling through listed apps, unlisted
// snapshot apps and names the corpus never generated.
func mixedPackages(c *corpus.Corpus, n int) []string {
	var on, off []string
	for _, s := range c.Apps {
		if s.OnPlayStore {
			on = append(on, s.Package)
		} else {
			off = append(off, s.Package)
		}
	}
	out := make([]string, 0, n)
	for i := 0; len(out) < n; i++ {
		switch i % 3 {
		case 0:
			out = append(out, on[i%len(on)])
		case 1:
			out = append(out, off[i%len(off)])
		default:
			out = append(out, fmt.Sprintf("com.never.existed%d", i))
		}
	}
	return out
}

// checkAnswers asserts one batch answer per package, matching the corpus.
func checkAnswers(t *testing.T, c *corpus.Corpus, pkgs []string, mds []Metadata, errs []error) {
	t.Helper()
	if len(mds) != len(pkgs) || len(errs) != len(pkgs) {
		t.Fatalf("got %d listings and %d errors for %d packages", len(mds), len(errs), len(pkgs))
	}
	for i, pkg := range pkgs {
		spec := c.AppByPackage(pkg)
		if spec == nil || !spec.OnPlayStore {
			if !errors.Is(errs[i], ErrNotFound) || retry.IsRetryable(errs[i]) {
				t.Errorf("%s: err = %v, want permanent ErrNotFound", pkg, errs[i])
			}
			continue
		}
		if errs[i] != nil {
			t.Errorf("%s: err = %v", pkg, errs[i])
			continue
		}
		if md := mds[i]; md.Package != pkg || md.Downloads != spec.Downloads ||
			md.Category != spec.PlayCategory || !md.LastUpdated.Equal(spec.LastUpdated) {
			t.Errorf("%s: listing %+v does not match spec", pkg, md)
		}
	}
}

func TestMetadataBatchMatchesCorpus(t *testing.T) {
	srv, c := testServer(t)
	client := NewClient(srv.URL, srv.Client())
	pkgs := mixedPackages(c, 200)
	mds, errs := client.MetadataBatch(context.Background(), pkgs)
	checkAnswers(t, c, pkgs, mds, errs)
	for i, pkg := range pkgs {
		md, err := client.Metadata(context.Background(), pkg)
		if errors.Is(err, ErrNotFound) != errors.Is(errs[i], ErrNotFound) || md != mds[i] {
			t.Errorf("%s: batch (%+v, %v) differs from per-item (%+v, %v)", pkg, mds[i], errs[i], md, err)
		}
	}
}

func TestMetadataBatchSplitsAtMaxBatch(t *testing.T) {
	c, err := corpus.Generate(corpus.Config{Seed: 1, Scale: 2000})
	if err != nil {
		t.Fatal(err)
	}
	var lookups atomic.Int64
	real := NewServer(c).Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		lookups.Add(1)
		real.ServeHTTP(w, r)
	}))
	defer srv.Close()
	pkgs := mixedPackages(c, 2*MaxBatch+1)
	mds, errs := NewClient(srv.URL, srv.Client()).MetadataBatch(context.Background(), pkgs)
	checkAnswers(t, c, pkgs, mds, errs)
	if n := lookups.Load(); n != 3 {
		t.Errorf("%d names took %d requests, want 3", len(pkgs), n)
	}
}

func TestLookupRejectsBadRequests(t *testing.T) {
	srv, _ := testServer(t)
	tooMany, _ := json.Marshal(make([]string, MaxBatch+1))
	oversized, _ := json.Marshal([]string{strings.Repeat("a", maxLookupBody)})
	for name, body := range map[string][]byte{
		"malformed":      []byte(`["com.a",`),
		"not an array":   []byte(`{"package":"com.a"}`),
		"trailing data":  []byte(`["com.a"] ["com.b"]`),
		"too many names": tooMany,
		"over size cap":  oversized,
	} {
		resp, err := srv.Client().Post(srv.URL+"/v1/lookup", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// lookupStub answers every POST /v1/lookup with the body reply returns.
func lookupStub(t *testing.T, status int, reply func(pkgs []string) string) *Client {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var pkgs []string
		json.NewDecoder(r.Body).Decode(&pkgs)
		w.WriteHeader(status)
		io.WriteString(w, reply(pkgs))
	}))
	t.Cleanup(srv.Close)
	return NewClient(srv.URL, srv.Client())
}

func TestMetadataBatchGarbledAnswersAreTransient(t *testing.T) {
	listed := `{"status":200,"metadata":{"package":"com.a"}}`
	for name, client := range map[string]*Client{
		"wrong item count": lookupStub(t, 200, func([]string) string { return "[" + listed + "]" }),
		"truncated":        lookupStub(t, 200, func([]string) string { return "[" + listed + `,{"sta` }),
		"garbled":          lookupStub(t, 200, func([]string) string { return "<html>oops</html>" }),
		"trailing data":    lookupStub(t, 200, func([]string) string { return `[` + listed + `,{"status":404}] x` }),
		"server error":     lookupStub(t, 503, func([]string) string { return "overloaded" }),
	} {
		_, errs := client.MetadataBatch(context.Background(), []string{"com.a", "com.b"})
		for i, err := range errs {
			if err == nil || !retry.IsRetryable(err) {
				t.Errorf("%s: item %d err = %v, want transient", name, i, err)
			}
		}
	}
}

func TestMetadataBatchPerItemStatus(t *testing.T) {
	client := lookupStub(t, 200, func([]string) string {
		return `[{"status":200,"metadata":{"package":"com.a","downloads":5}},` +
			`{"status":404},{"status":503},{"status":200},` +
			`{"status":200,"metadata":{"package":"com.other"}}]`
	})
	mds, errs := client.MetadataBatch(context.Background(), []string{"com.a", "com.b", "com.c", "com.d", "com.e"})
	if errs[0] != nil || mds[0].Downloads != 5 {
		t.Errorf("listed item: (%+v, %v)", mds[0], errs[0])
	}
	if !errors.Is(errs[1], ErrNotFound) || retry.IsRetryable(errs[1]) {
		t.Errorf("404 item: err = %v, want permanent ErrNotFound", errs[1])
	}
	for i := 2; i < 5; i++ {
		if errs[i] == nil || errors.Is(errs[i], ErrNotFound) || !retry.IsRetryable(errs[i]) {
			t.Errorf("item %d: err = %v, want transient", i, errs[i])
		}
	}
}

// dialCounter counts, through httptrace, how many requests got a freshly
// dialed connection instead of one from the idle pool.
type dialCounter struct{ dials, reused atomic.Int64 }

func (d *dialCounter) trace(ctx context.Context) context.Context {
	return httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			if info.Reused {
				d.reused.Add(1)
			} else {
				d.dials.Add(1)
			}
		},
	})
}

// TestLookupsReuseConnections is the dial-storm regression test: two
// goroutines sharing one client make ~500 mixed found/not-found lookups,
// per item and batched. Every answer — 404s included — must hand its
// connection back, so the client dials at most one connection per
// goroutine.
func TestLookupsReuseConnections(t *testing.T) {
	srv, c := testServer(t)
	pkgs := mixedPackages(c, 500)
	const workers = 2
	for _, mode := range []string{"per-item", "batched"} {
		t.Run(mode, func(t *testing.T) {
			client := NewClient(srv.URL, srv.Client())
			defer srv.Client().CloseIdleConnections()
			var dc dialCounter
			ctx := dc.trace(context.Background())
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(mine []string) {
					defer wg.Done()
					if mode == "batched" {
						for len(mine) > 0 {
							n := min(64, len(mine))
							_, errs := client.MetadataBatch(ctx, mine[:n])
							for _, err := range errs {
								if err != nil && !errors.Is(err, ErrNotFound) {
									t.Error(err)
								}
							}
							mine = mine[n:]
						}
						return
					}
					for _, pkg := range mine {
						if _, err := client.Metadata(ctx, pkg); err != nil && !errors.Is(err, ErrNotFound) {
							t.Error(err)
						}
					}
				}(pkgs[w*len(pkgs)/workers : (w+1)*len(pkgs)/workers])
			}
			wg.Wait()
			if d := dc.dials.Load(); d > workers {
				t.Errorf("%d dials for %d requests (%d reused), want ≤ %d", d, d+dc.reused.Load(), dc.reused.Load(), workers)
			}
		})
	}
}

// memTransport serves requests straight from a handler, without sockets.
type memTransport struct{ h http.Handler }

func (m memTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	m.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// FuzzLookup round-trips arbitrary bytes through the lookup endpoint. As a
// request body they must get a 400 or exactly one correct item per name;
// as an answer body they must leave every item either answered correctly
// or failed, never a panic or a listing for the wrong package.
func FuzzLookup(f *testing.F) {
	c, err := corpus.Generate(corpus.Config{Seed: 1, Scale: 20000})
	if err != nil {
		f.Fatal(err)
	}
	h := NewServer(c).Handler()
	seed, _ := json.Marshal(mixedPackages(c, 6))
	f.Add(seed)
	f.Add([]byte(`[]`))
	f.Add([]byte(`null`))
	f.Add([]byte(`["",""]`))
	f.Add([]byte(`[{"status":200,"metadata":{"package":"com.a"}},{"status":404}]`))
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/lookup", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var pkgs []string
		valid := json.Unmarshal(body, &pkgs) == nil && len(pkgs) <= MaxBatch && len(body) <= maxLookupBody
		switch rec.Code {
		case http.StatusOK:
			if !valid {
				t.Fatalf("accepted an invalid lookup %q", body)
			}
			var items []LookupItem
			if err := json.Unmarshal(rec.Body.Bytes(), &items); err != nil || len(items) != len(pkgs) {
				t.Fatalf("answer %q for %d names: %v", rec.Body.Bytes(), len(pkgs), err)
			}
			mds, errs := NewClient("http://store", &http.Client{Transport: memTransport{h}}).MetadataBatch(context.Background(), pkgs)
			checkAnswers(t, c, pkgs, mds, errs)
		case http.StatusBadRequest:
		default:
			t.Fatalf("status %d for %q", rec.Code, body)
		}

		stub := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.Write(body) })
		asked := []string{"com.a", "com.b"}
		mds, errs := NewClient("http://store", &http.Client{Transport: memTransport{stub}}).MetadataBatch(context.Background(), asked)
		for i, err := range errs {
			if err == nil && mds[i].Package != asked[i] {
				t.Fatalf("item %d answered with %q's listing", i, mds[i].Package)
			}
		}
	})
}
