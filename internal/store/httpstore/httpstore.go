// Package httpstore is the remote arm of the pluggable store backend
// (store.Backend): a client that speaks a coordinator's /v1/store/{key}
// endpoints, and the matching HTTP handler the coordinator mounts in front
// of its local disk store. Together they let a sweep worker's persistent
// tier live on another machine — every scenario checkpoint a worker
// writes, and every design-objective evaluation outcome, lands in the
// coordinator's content-addressed store, and warm records answer over the
// wire instead of recomputing. (Timing outcomes cost less to recompute
// than one round trip, so the engine never sends them.)
//
// The client preserves the store contract exactly:
//
//   - Reads never fail the caller. A connection error, a non-200 status, a
//     coordinator without a store (503), or a record the coordinator's disk
//     store rejected as corrupt (404 — corruption is detected server-side
//     by the versioned key-carrying envelope) all read as a miss.
//   - Writes are best-effort and atomic: the payload travels whole in one
//     PUT body, and the coordinator's disk store does its usual temp+rename
//     write, so racing workers — which, evaluations being deterministic,
//     carry identical payloads — can only race complete records.
//
// On top of that contract sits the resilience layer (internal/resilience):
// every Get/Put runs under a per-operation deadline (no client-wide 30s
// timeout — a hung coordinator costs one OpTimeout per attempt, bounded by
// the retry budget), transient failures (transport errors, 5xx, 429) are
// retried on a seeded-jitter backoff schedule, and a circuit breaker turns
// sustained failure into immediate misses: with the breaker open, a Get
// against a dead coordinator returns in microseconds instead of stalling
// the sweep's hot path, and a half-open probe re-admits traffic once the
// coordinator recovers. A definitive 404 is a healthy answer — it is never
// retried and never trips the breaker.
//
// Keys travel in the URL path, percent-escaped per segment so the literal
// '/' separators of the store's namespaces survive routing while every
// other byte (spaces, parens, '%') round-trips exactly.
package httpstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/resilience"
	"repro/internal/store"
)

// pathPrefix is the route both ends agree on; Handler strips it, Client
// prepends it.
const pathPrefix = "/v1/store/"

// maxPayload bounds one record body on the server side. Records are small
// JSON envelopes (checkpoints, outcomes, rendered tables); anything near
// this limit is a broken or hostile client.
const maxPayload = 8 << 20

// DefaultOpTimeout is the per-attempt deadline of one Get/Put when Options
// leaves OpTimeout zero. Store traffic is small records on a fast link; an
// attempt that takes longer is a dead or wedged coordinator, and the retry
// budget (not a long timeout) absorbs restarts.
const DefaultOpTimeout = 5 * time.Second

// errBadPayload marks a response that arrived with an unusable body (empty
// or over maxPayload) — response-level corruption, counted in
// Stats.Corrupt.
var errBadPayload = errors.New("httpstore: empty or oversized payload")

// escapeKey renders a store key as a URL path suffix: each '/'-separated
// segment is percent-escaped independently, keeping the separators literal
// so the route still looks like the key ("o/<hash>/(3, 2, 3)").
func escapeKey(key string) string {
	segs := strings.Split(key, "/")
	for i, s := range segs {
		segs[i] = url.PathEscape(s)
	}
	return strings.Join(segs, "/")
}

// Options configures a Client's resilience envelope. The zero value of
// every field resolves to a sane default.
type Options struct {
	// HTTPClient issues the requests; nil uses a default client with no
	// client-wide timeout (deadlines are per-operation).
	HTTPClient *http.Client
	// OpTimeout is the per-attempt deadline of one Get/Put
	// (0 = DefaultOpTimeout, negative = no deadline).
	OpTimeout time.Duration
	// Policy is the retry policy for transient failures (zero value =
	// resilience defaults: 4 attempts, 50ms..2s backoff).
	Policy resilience.Policy
	// Breaker guards the coordinator edge; nil installs a default breaker
	// (open after 5 consecutive transient failures, 5s cooldown). Tests
	// inject one on a fake clock.
	Breaker *resilience.Breaker
}

// ResilienceStats snapshots the client's retry and breaker counters for
// observability endpoints (/statsz).
type ResilienceStats struct {
	Retry   resilience.Stats        `json:"retry"`
	Breaker resilience.BreakerStats `json:"breaker"`
}

// Client is a store.Backend whose records live behind a coordinator's
// /v1/store endpoints. All methods are safe for concurrent use. The zero
// value is not usable; construct with New or NewWithOptions.
type Client struct {
	base      string // coordinator base URL, no trailing slash
	hc        *http.Client
	opTimeout time.Duration
	retry     *resilience.Retryer

	gets      atomic.Int64
	hits      atomic.Int64
	puts      atomic.Int64
	corrupt   atomic.Int64 // responses that arrived but were unusable
	putErrors atomic.Int64
}

// New returns a client for the coordinator at baseURL (e.g.
// "http://coordinator:8080") with the default resilience envelope.
// httpClient may be nil for a default.
func New(baseURL string, httpClient *http.Client) *Client {
	return NewWithOptions(baseURL, Options{HTTPClient: httpClient})
}

// NewWithOptions returns a client with an explicit resilience envelope.
func NewWithOptions(baseURL string, o Options) *Client {
	if o.HTTPClient == nil {
		o.HTTPClient = &http.Client{}
	}
	if o.OpTimeout == 0 {
		o.OpTimeout = DefaultOpTimeout
	}
	if o.Breaker == nil {
		o.Breaker = resilience.NewBreaker(0, 0)
	}
	return &Client{
		base:      strings.TrimRight(baseURL, "/"),
		hc:        o.HTTPClient,
		opTimeout: o.OpTimeout,
		retry:     resilience.NewRetryer(o.Policy, o.Breaker),
	}
}

// Base returns the coordinator base URL the client was built with.
func (c *Client) Base() string { return c.base }

// Retryer exposes the client's retry loop (tests replace its sleep to pin
// schedules without waiting them out).
func (c *Client) Retryer() *resilience.Retryer { return c.retry }

// Breaker exposes the circuit breaker guarding this client's coordinator
// edge.
func (c *Client) Breaker() *resilience.Breaker { return c.retry.Breaker() }

func (c *Client) keyURL(key string) string {
	return c.base + pathPrefix + escapeKey(key)
}

// opCtx builds one attempt's deadline context.
func (c *Client) opCtx() (context.Context, context.CancelFunc) {
	if c.opTimeout > 0 {
		return context.WithTimeout(context.Background(), c.opTimeout)
	}
	return context.Background(), func() {}
}

// Get fetches the payload stored under key. Any failure — transport error,
// non-200 status, oversized or unreadable body — reads as a miss, so a
// worker cut off from its coordinator keeps computing correctly, just
// colder. Transient failures are retried with backoff; with the breaker
// open the miss is immediate (no network round-trip at all).
func (c *Client) Get(key string) ([]byte, bool) {
	c.gets.Add(1)
	var data []byte
	found := false
	err := c.retry.Do(context.Background(), func() error {
		data, found = nil, false
		ctx, cancel := c.opCtx()
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.keyURL(key), nil)
		if err != nil {
			return err
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusNotFound:
			// A definitive miss from a healthy coordinator: not an error,
			// not retryable, not a breaker failure.
			io.Copy(io.Discard, resp.Body)
			return nil
		default:
			io.Copy(io.Discard, resp.Body)
			return resilience.NewStatusError(resp.StatusCode, resp.Header.Get("Retry-After"))
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, maxPayload+1))
		if err != nil {
			return fmt.Errorf("httpstore: read body: %w", err)
		}
		if len(body) == 0 || len(body) > maxPayload {
			return errBadPayload
		}
		data, found = body, true
		return nil
	})
	if err != nil {
		if isResponseFailure(err) {
			c.corrupt.Add(1) // the endpoint answered but misbehaved
		}
		return nil, false
	}
	if !found {
		return nil, false
	}
	c.hits.Add(1)
	return data, true
}

// Put uploads payload under key, best-effort: every failure — after the
// retry budget, or immediately with the breaker open — is counted in
// Stats.PutErrors and swallowed, exactly like a disk-store write error.
func (c *Client) Put(key string, payload []byte) {
	c.puts.Add(1)
	err := c.retry.Do(context.Background(), func() error {
		ctx, cancel := c.opCtx()
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodPut, c.keyURL(key), bytes.NewReader(payload))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.hc.Do(req)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
			return resilience.NewStatusError(resp.StatusCode, resp.Header.Get("Retry-After"))
		}
		return nil
	})
	if err != nil {
		c.putErrors.Add(1)
	}
}

// isResponseFailure distinguishes "the endpoint answered but misbehaved"
// (counted as corruption, like the old non-404 accounting) from pure
// transport failure or a breaker short-circuit (plain misses).
func isResponseFailure(err error) bool {
	if errors.Is(err, resilience.ErrCircuitOpen) {
		return false
	}
	var se *resilience.StatusError
	return errors.As(err, &se) || errors.Is(err, errBadPayload)
}

// Stats snapshots the client-side traffic counters; Corrupt counts
// responses that arrived but could not be used (server errors, oversized
// bodies) — plain 404 misses, transport failures, and breaker
// short-circuits are not corruption.
func (c *Client) Stats() store.Stats {
	return store.Stats{
		Gets:      c.gets.Load(),
		Hits:      c.hits.Load(),
		Puts:      c.puts.Load(),
		Corrupt:   c.corrupt.Load(),
		PutErrors: c.putErrors.Load(),
	}
}

// Resilience snapshots the retry and breaker counters.
func (c *Client) Resilience() ResilienceStats {
	return ResilienceStats{
		Retry:   c.retry.Stats(),
		Breaker: c.retry.Breaker().Stats(),
	}
}

// Handler serves a backend over the /v1/store/{key...} routes the Client
// speaks: GET answers 200 with the raw payload or 404 for any miss
// (including server-side corruption — the disk store already refuses to
// serve bad records), PUT stores the body and answers 204. A nil backend
// (coordinator started without -store) answers 503 so workers degrade to
// local recomputation instead of silently thinking records persisted.
func Handler(be store.Backend) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+pathPrefix+"{key...}", func(w http.ResponseWriter, r *http.Request) {
		if be == nil {
			http.Error(w, "no store configured", http.StatusServiceUnavailable)
			return
		}
		key := r.PathValue("key")
		data, ok := be.Get(key)
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	})
	mux.HandleFunc("PUT "+pathPrefix+"{key...}", func(w http.ResponseWriter, r *http.Request) {
		if be == nil {
			http.Error(w, "no store configured", http.StatusServiceUnavailable)
			return
		}
		key := r.PathValue("key")
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxPayload))
		if err != nil {
			http.Error(w, "payload too large or unreadable", http.StatusBadRequest)
			return
		}
		if key == "" || len(data) == 0 {
			http.Error(w, "empty key or payload", http.StatusBadRequest)
			return
		}
		be.Put(key, data)
		w.WriteHeader(http.StatusNoContent)
	})
	return mux
}
