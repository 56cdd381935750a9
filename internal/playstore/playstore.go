// Package playstore simulates the Google Play Store metadata service the
// paper scrapes (step 1 of Figure 1): install counts, category and
// last-update time per app. It exposes an HTTP server over a generated
// corpus and a typed client, so the pipeline performs real network fetches
// with real not-found handling (2.45M of the 6.5M AndroZoo apps are not on
// the Play Store).
//
// Besides the per-app GET, the server answers POST /v1/lookup: a JSON array
// of up to MaxBatch package names answered by one status (200 or 404) per
// name, so a corpus-scale sweep costs one round trip per chunk of packages
// instead of one per package.
package playstore

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/corpus"
	"repro/internal/retry"
)

// Metadata is the Play Store listing data the pipeline filters on.
type Metadata struct {
	Package     string    `json:"package"`
	Title       string    `json:"title"`
	Category    string    `json:"category"`
	Downloads   int64     `json:"downloads"`
	LastUpdated time.Time `json:"lastUpdated"`
}

// ErrNotFound reports that an app is not listed on the store.
var ErrNotFound = errors.New("playstore: app not found")

// MaxBatch is the most package names one POST /v1/lookup may carry; the
// server answers a longer list with 400. It bounds the server's per-request
// work, and MetadataBatch splits longer lists into requests of this size.
const MaxBatch = 256

const (
	// maxLookupBody caps a lookup request body: MaxBatch names of up to
	// 256 bytes each, with room for JSON quoting.
	maxLookupBody = MaxBatch * 512
	// maxLookupResponse caps the lookup answer a client will read.
	maxLookupResponse = 16 << 20
)

// LookupItem is one entry of a POST /v1/lookup answer, in request order:
// Status 200 with the listing, or 404 for an app absent from the store.
type LookupItem struct {
	Status   int       `json:"status"`
	Metadata *Metadata `json:"metadata,omitempty"`
}

// Server serves store metadata for a corpus.
type Server struct {
	src corpus.Source
}

// NewServer serves the materialized corpus.
func NewServer(c *corpus.Corpus) *Server {
	return NewServerFrom(c)
}

// NewServerFrom serves any corpus source, including the bounded-memory
// *corpus.Snapshot for full paper-scale listings.
func NewServerFrom(src corpus.Source) *Server {
	return &Server{src: src}
}

// Handler returns the HTTP handler:
//
//	GET  /v1/apps/{package}   one listing, or 404
//	POST /v1/lookup           JSON array of names → JSON array of LookupItem
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/apps/", s.handleApp)
	mux.HandleFunc("POST /v1/lookup", s.handleLookup)
	return mux
}

// listing returns the store listing for pkg, or nil if the store has none.
func (s *Server) listing(pkg string) *Metadata {
	spec := s.src.ByPackage(pkg)
	if spec == nil || !spec.OnPlayStore {
		return nil
	}
	return &Metadata{
		Package:     spec.Package,
		Title:       spec.Title,
		Category:    spec.PlayCategory,
		Downloads:   spec.Downloads,
		LastUpdated: spec.LastUpdated,
	}
}

func (s *Server) handleApp(w http.ResponseWriter, r *http.Request) {
	pkg := strings.TrimPrefix(r.URL.Path, "/v1/apps/")
	if pkg == "" {
		http.Error(w, "missing package", http.StatusBadRequest)
		return
	}
	md := s.listing(pkg)
	if md == nil {
		http.Error(w, "not found", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// An encode error is a connection-level failure; nothing more to do.
	json.NewEncoder(w).Encode(md)
}

// handleLookup answers a batch of names. Malformed JSON, trailing data,
// more than MaxBatch names and a body over maxLookupBody are all 400.
func (s *Server) handleLookup(w http.ResponseWriter, r *http.Request) {
	var pkgs []string
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxLookupBody))
	if err := dec.Decode(&pkgs); err != nil {
		http.Error(w, "bad lookup: "+err.Error(), http.StatusBadRequest)
		return
	}
	if _, err := dec.Token(); err != io.EOF {
		http.Error(w, "bad lookup: trailing data after array", http.StatusBadRequest)
		return
	}
	if len(pkgs) > MaxBatch {
		http.Error(w, fmt.Sprintf("bad lookup: %d names, at most %d", len(pkgs), MaxBatch), http.StatusBadRequest)
		return
	}
	items := make([]LookupItem, len(pkgs))
	for i, pkg := range pkgs {
		if md := s.listing(pkg); md != nil {
			items[i] = LookupItem{Status: http.StatusOK, Metadata: md}
		} else {
			items[i].Status = http.StatusNotFound
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(items)
}

// Client fetches metadata from a Server (or anything with its API).
type Client struct {
	base  string
	hc    *http.Client
	retry *retry.Policy
}

// NewClient returns a client for the service at baseURL.
func NewClient(baseURL string, hc *http.Client) *Client {
	if hc == nil {
		hc = &http.Client{Timeout: 30 * time.Second}
	}
	return &Client{base: strings.TrimRight(baseURL, "/"), hc: hc}
}

// WithRetry wraps every Metadata call in the given retry policy (nil
// disables retrying) and returns the client. Not-found responses are
// classified permanent — an app's absence is an answer, not a failure —
// so they are never retried and never trip a circuit breaker into
// mistaking 2.45M honest 404s for an outage.
func (c *Client) WithRetry(p *retry.Policy) *Client {
	c.retry = p
	return c
}

// Metadata fetches one app's listing. Returns ErrNotFound for apps absent
// from the store. Server errors and truncated responses are retryable;
// with a WithRetry policy they are re-attempted with backoff.
func (c *Client) Metadata(ctx context.Context, pkg string) (Metadata, error) {
	return retry.Do(ctx, c.retry, func(ctx context.Context) (Metadata, error) {
		return c.metadata(ctx, pkg)
	})
}

func (c *Client) metadata(ctx context.Context, pkg string) (Metadata, error) {
	var md Metadata
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/apps/"+pkg, nil)
	if err != nil {
		return md, retry.Permanent(fmt.Errorf("playstore: %w", err))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return md, retry.Transient(fmt.Errorf("playstore: %w", err))
	}
	defer drainClose(resp.Body)
	switch {
	case resp.StatusCode == http.StatusOK:
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&md); err != nil {
			// A decode failure on a 200 is a truncated or garbled body —
			// the transfer failed, not the request.
			return md, retry.Transient(fmt.Errorf("playstore: decode %s: %w", pkg, err))
		}
		return md, nil
	case resp.StatusCode == http.StatusNotFound:
		return md, notFound(pkg)
	default:
		return md, classifyStatus(resp.StatusCode, fmt.Errorf("playstore: %s: unexpected status %s", pkg, resp.Status))
	}
}

// MetadataBatch looks up many apps through POST /v1/lookup, one request per
// MaxBatch names and one attempt per request: the retry policy does not
// apply, since the caller is expected to retry any item that did not get an
// answer through Metadata. It returns one listing and one error per package,
// in order. An error is nil for a listed app, a permanent ErrNotFound for an
// app absent from the store, and otherwise classified like Metadata's. A
// request that fails as a whole — transport error, non-200 status, or a body
// that is not exactly one well-formed item per name — sets its error on
// every package of that request; a garbled body is transient.
func (c *Client) MetadataBatch(ctx context.Context, pkgs []string) ([]Metadata, []error) {
	mds := make([]Metadata, len(pkgs))
	errs := make([]error, len(pkgs))
	for lo := 0; lo < len(pkgs); lo += MaxBatch {
		hi := min(lo+MaxBatch, len(pkgs))
		c.lookup(ctx, pkgs[lo:hi], mds[lo:hi], errs[lo:hi])
	}
	return mds, errs
}

// lookup performs one POST /v1/lookup for at most MaxBatch names, filling
// mds and errs (both len(pkgs)).
func (c *Client) lookup(ctx context.Context, pkgs []string, mds []Metadata, errs []error) {
	items, err := c.lookupItems(ctx, pkgs)
	if err == nil && len(items) != len(pkgs) {
		err = retry.Transient(fmt.Errorf("playstore: lookup: %d items for %d names", len(items), len(pkgs)))
	}
	if err != nil {
		for i := range errs {
			errs[i] = err
		}
		return
	}
	for i, it := range items {
		switch {
		case it.Status == http.StatusOK && it.Metadata != nil && it.Metadata.Package == pkgs[i]:
			mds[i] = *it.Metadata
		case it.Status == http.StatusOK:
			errs[i] = retry.Transient(fmt.Errorf("playstore: lookup %s: item carries no listing for it", pkgs[i]))
		case it.Status == http.StatusNotFound:
			errs[i] = notFound(pkgs[i])
		default:
			errs[i] = classifyStatus(it.Status, fmt.Errorf("playstore: lookup %s: item status %d", pkgs[i], it.Status))
		}
	}
}

func (c *Client) lookupItems(ctx context.Context, pkgs []string) ([]LookupItem, error) {
	body, err := json.Marshal(pkgs)
	if err != nil {
		return nil, retry.Permanent(fmt.Errorf("playstore: lookup: %w", err))
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/lookup", bytes.NewReader(body))
	if err != nil {
		return nil, retry.Permanent(fmt.Errorf("playstore: lookup: %w", err))
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, retry.Transient(fmt.Errorf("playstore: lookup: %w", err))
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, classifyStatus(resp.StatusCode, fmt.Errorf("playstore: lookup: unexpected status %s", resp.Status))
	}
	var items []LookupItem
	dec := json.NewDecoder(io.LimitReader(resp.Body, maxLookupResponse))
	if err := dec.Decode(&items); err != nil {
		return nil, retry.Transient(fmt.Errorf("playstore: lookup: decode: %w", err))
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, retry.Transient(errors.New("playstore: lookup: trailing data after answer"))
	}
	return items, nil
}

func notFound(pkg string) error {
	return retry.Permanent(fmt.Errorf("%w: %s", ErrNotFound, pkg))
}

// classifyStatus marks 5xx responses transient (the server may recover)
// and everything else permanent (the request itself is wrong).
func classifyStatus(code int, err error) error {
	if code >= 500 {
		return retry.Transient(err)
	}
	return retry.Permanent(err)
}

// drainClose reads a bounded tail of body before closing it. A body closed
// unread makes the transport drop the connection, so without the drain
// every 404 would cost a fresh dial.
func drainClose(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, 4096))
	body.Close()
}
