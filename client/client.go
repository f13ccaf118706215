// Package client is the typed Go SDK for the conversion service's v1
// HTTP/JSON API — the one client both end users and the dispatch
// coordinator use, so the coordinator→worker path exercises exactly
// the surface the public SDK exposes.
//
// A Client wraps one daemon (or coordinator — the API is identical)
// base URL:
//
//	c := client.New("http://localhost:8080")
//	st, err := c.Submit(ctx, &progconv.JobSpec{ ... })
//	report, err := c.WaitReport(ctx, st.ID, 0)
//
// Every document the SDK decodes is a progconv facade alias of the v1
// wire schema (JobSpec, JobStatus, JobList, WorkerList), so callers
// never import internal packages. Non-2xx responses become *APIError
// values carrying the machine-readable error code from the wire code
// table; retryable rejections (429 queue_full, 503 draining/no_worker)
// are retried automatically with the supervisor's deterministic capped
// backoff, honoring the server's Retry-After hint when one is sent.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"progconv"
	"progconv/internal/core"
)

// Client is a v1 API client for one base URL. It is safe for
// concurrent use by multiple goroutines.
type Client struct {
	base        string
	hc          *http.Client
	retries     int
	backoff     time.Duration
	traceparent string
	sleep       func(context.Context, time.Duration) error
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient replaces the transport (the default is a dedicated
// http.Client with no timeout — job submissions block only as long as
// the context allows).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithRetries bounds automatic retries of transport errors and
// retryable statuses (429, 503) to n attempts beyond the first, paced
// by the supervisor's deterministic capped backoff from base (0 = the
// 50ms default), never shorter than the server's Retry-After hint.
// The default is 2; WithRetries(0, 0) disables retries — the dispatch
// coordinator does, because it owns failover itself.
func WithRetries(n int, base time.Duration) Option {
	return func(c *Client) { c.retries, c.backoff = n, base }
}

// WithTraceparent propagates a W3C traceparent header on submissions,
// so the job's trace continues the caller's trace.
func WithTraceparent(tp string) Option {
	return func(c *Client) { c.traceparent = tp }
}

// New returns a Client for the v1 API at base (e.g.
// "http://localhost:8080").
func New(base string, opts ...Option) *Client {
	c := &Client{
		base:    strings.TrimRight(base, "/"),
		hc:      &http.Client{},
		retries: 2,
		sleep: func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
				return nil
			case <-ctx.Done():
				return context.Cause(ctx)
			}
		},
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// BaseURL returns the base URL the client was created with.
func (c *Client) BaseURL() string { return c.base }

// APIError is a non-2xx response decoded from the server's ErrorDoc:
// the HTTP status, the machine-readable code, and the prose message.
// Dispatch on Code, not on Message.
type APIError struct {
	Status  int
	Code    progconv.ErrorCode
	Message string
}

func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("%s: %s (http %d)", e.Code, e.Message, e.Status)
	}
	return fmt.Sprintf("%s (http %d)", e.Message, e.Status)
}

// ErrNotFinished is returned by Report for a job still queued or
// running; poll Status or use WaitReport.
var ErrNotFinished = errors.New("client: job has not finished")

// retryable reports whether a response status may succeed on retry.
func retryable(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// do issues one request with the retry policy. A non-nil body is
// replayed on every attempt. The caller owns the response body.
func (c *Client) do(ctx context.Context, method, path string, query url.Values, body []byte, hdr map[string]string) (*http.Response, error) {
	u := c.base + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, u, rd)
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := c.hc.Do(req)
		var pause time.Duration
		switch {
		case err != nil:
			lastErr = err
		case retryable(resp.StatusCode) && attempt < c.retries:
			lastErr = decodeError(resp)
			if ra := resp.Header.Get("Retry-After"); ra != "" {
				if secs, perr := strconv.Atoi(ra); perr == nil {
					pause = time.Duration(secs) * time.Second
				}
			}
		default:
			return resp, nil
		}
		if attempt >= c.retries {
			return nil, lastErr
		}
		if b := core.Backoff(c.backoff, attempt); b > pause {
			pause = b
		}
		if err := c.sleep(ctx, pause); err != nil {
			return nil, err
		}
	}
}

// decodeError drains a non-2xx response into an *APIError and closes
// the body.
func decodeError(resp *http.Response) error {
	defer resp.Body.Close()
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var doc progconv.ErrorDoc
	if json.Unmarshal(raw, &doc) == nil && doc.Error != "" {
		return &APIError{Status: resp.StatusCode, Code: doc.Code, Message: doc.Error}
	}
	return &APIError{Status: resp.StatusCode, Message: strings.TrimSpace(string(raw))}
}

// decodeInto decodes a JSON response and closes the body; non-2xx
// responses become *APIError.
func decodeInto(resp *http.Response, out any) error {
	if resp.StatusCode/100 != 2 {
		return decodeError(resp)
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// Submit sends a job. The returned status carries the job ID every
// other method takes, and its TraceID names the job's trace (the
// propagated one under WithTraceparent, a content-derived one
// otherwise).
func (c *Client) Submit(ctx context.Context, spec *progconv.JobSpec) (*progconv.JobStatus, error) {
	return c.SubmitTrace(ctx, spec, c.traceparent)
}

// SubmitTrace is Submit with an explicit traceparent for this one
// submission, overriding WithTraceparent; the dispatch coordinator
// uses it to pass each caller's trace through to the routed worker.
// An empty traceparent propagates nothing.
func (c *Client) SubmitTrace(ctx context.Context, spec *progconv.JobSpec, traceparent string) (*progconv.JobStatus, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	return c.SubmitBody(ctx, body, traceparent)
}

// SubmitBody is SubmitTrace for a submission already encoded: it posts
// body as it is. The dispatch coordinator forwards each caller's bytes
// to the routed worker this way, without encoding the spec again.
func (c *Client) SubmitBody(ctx context.Context, body []byte, traceparent string) (*progconv.JobStatus, error) {
	var hdr map[string]string
	if traceparent != "" {
		hdr = map[string]string{"traceparent": traceparent}
	}
	resp, err := c.do(ctx, http.MethodPost, "/v1/jobs", nil, body, hdr)
	if err != nil {
		return nil, err
	}
	st := new(progconv.JobStatus)
	if err := decodeInto(resp, st); err != nil {
		return nil, err
	}
	return st, nil
}

// Status fetches one job's status document.
func (c *Client) Status(ctx context.Context, id string) (*progconv.JobStatus, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, nil, nil)
	if err != nil {
		return nil, err
	}
	st := new(progconv.JobStatus)
	if err := decodeInto(resp, st); err != nil {
		return nil, err
	}
	return st, nil
}

// ListOptions select one page of the job listing.
type ListOptions struct {
	// State filters to one lifecycle state: "queued", "running",
	// "done", "failed" or "canceled". Empty lists every state.
	State string
	// Limit is the page size (0 = the server default).
	Limit int
	// PageToken resumes a listing from a previous page's
	// NextPageToken.
	PageToken string
}

// List fetches one page of the job listing in submission order. Follow
// NextPageToken until it is empty to see every job.
func (c *Client) List(ctx context.Context, opts ListOptions) (*progconv.JobList, error) {
	q := url.Values{}
	if opts.State != "" {
		q.Set("state", opts.State)
	}
	if opts.Limit > 0 {
		q.Set("limit", strconv.Itoa(opts.Limit))
	}
	if opts.PageToken != "" {
		q.Set("page_token", opts.PageToken)
	}
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs", q, nil, nil)
	if err != nil {
		return nil, err
	}
	list := new(progconv.JobList)
	if err := decodeInto(resp, list); err != nil {
		return nil, err
	}
	return list, nil
}

// Cancel cancels a queued or running job; terminal jobs are
// unaffected. It returns the job's status after the request.
func (c *Client) Cancel(ctx context.Context, id string) (*progconv.JobStatus, error) {
	resp, err := c.do(ctx, http.MethodPost, "/v1/jobs/"+url.PathEscape(id)+"/cancel", nil, nil, nil)
	if err != nil {
		return nil, err
	}
	st := new(progconv.JobStatus)
	if err := decodeInto(resp, st); err != nil {
		return nil, err
	}
	return st, nil
}

// Report fetches a finished job's report document — byte-identical to
// the CLI's -report-json for the same inputs — along with the HTTP
// status it was served with (the shared exit-code table's mapping, so
// 409 means the fail_on gate tripped). A job still queued or running
// returns ErrNotFinished; failed and canceled jobs return *APIError.
func (c *Client) Report(ctx context.Context, id string) ([]byte, int, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/report", nil, nil, nil)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode == http.StatusAccepted {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, resp.StatusCode, ErrNotFinished
	}
	raw, err := readBody(resp)
	resp.Body.Close()
	if err != nil {
		return nil, resp.StatusCode, err
	}
	// A 200 is always a report: error documents ride only 4xx and 5xx
	// statuses, so the body is not decoded. A finished report rides
	// non-200 statuses too (409 fail_on, 500 pipeline); there only a
	// body that decodes as an ErrorDoc is an error.
	if resp.StatusCode != http.StatusOK {
		var ed progconv.ErrorDoc
		if json.Unmarshal(raw, &ed) == nil && ed.Error != "" {
			return nil, resp.StatusCode, &APIError{Status: resp.StatusCode, Code: ed.Code, Message: ed.Error}
		}
	}
	return raw, resp.StatusCode, nil
}

// maxSizedBody bounds the Content-Length readBody allocates up front.
const maxSizedBody = 64 << 20

// readBody reads a response body whole: into one buffer of the
// declared size when the response declares a length up to
// maxSizedBody, growing as it reads otherwise. A body shorter than its
// declared length is an error, never a truncated document.
func readBody(resp *http.Response) ([]byte, error) {
	n := resp.ContentLength
	if n <= 0 || n > maxSizedBody {
		return io.ReadAll(resp.Body)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(resp.Body, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("reading %d-byte body: %w", n, err)
	}
	return buf, nil
}

// Wait polls a job's status until it reaches a terminal state (done,
// failed or canceled) or ctx ends. poll is the polling interval (0 =
// 50ms).
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (*progconv.JobStatus, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return nil, err
		}
		switch st.State {
		case "done", "failed", "canceled":
			return st, nil
		}
		if err := c.sleep(ctx, poll); err != nil {
			return nil, err
		}
	}
}

// WaitReport is Wait followed by Report: it blocks until the job
// finishes and returns the report bytes and serving status.
func (c *Client) WaitReport(ctx context.Context, id string, poll time.Duration) ([]byte, int, error) {
	if _, err := c.Wait(ctx, id, poll); err != nil {
		return nil, 0, err
	}
	return c.Report(ctx, id)
}

// Events streams a job's structured event log as NDJSON — replaying
// from the first event and following live until the job finishes. The
// caller must Close the returned stream. Set omitTiming to drop
// wall-clock fields, leaving the parallelism-independent bytes.
func (c *Client) Events(ctx context.Context, id string, omitTiming bool) (io.ReadCloser, error) {
	q := url.Values{}
	if omitTiming {
		q.Set("omit_timing", "1")
	}
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/events", q, nil, nil)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	return resp.Body, nil
}

// Trace fetches a job's span tree as a wire trace document; a running
// job yields a consistent partial tree.
func (c *Client) Trace(ctx context.Context, id string, omitTiming bool) ([]byte, error) {
	q := url.Values{}
	if omitTiming {
		q.Set("omit_timing", "1")
	}
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/trace", q, nil, nil)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// Ready probes /readyz: nil when the server is accepting work, an
// error while it is draining or unreachable. The health prober in the
// dispatch coordinator is built on this.
func (c *Client) Ready(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return &APIError{Status: resp.StatusCode, Message: "not ready"}
	}
	return nil
}

// Workers fetches a coordinator's worker registry. A standalone daemon
// has no registry and answers not_found.
func (c *Client) Workers(ctx context.Context) (*progconv.WorkerList, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/workers", nil, nil, nil)
	if err != nil {
		return nil, err
	}
	list := new(progconv.WorkerList)
	if err := decodeInto(resp, list); err != nil {
		return nil, err
	}
	return list, nil
}

// RegisterWorker registers (or re-admits) a worker daemon with a
// coordinator and returns its registry entry.
func (c *Client) RegisterWorker(ctx context.Context, workerURL string) (*progconv.WorkerDoc, error) {
	body, err := json.Marshal(progconv.WorkerSpec{V: progconv.WireVersion, URL: workerURL})
	if err != nil {
		return nil, err
	}
	resp, err := c.do(ctx, http.MethodPost, "/v1/workers", nil, body, nil)
	if err != nil {
		return nil, err
	}
	doc := new(progconv.WorkerDoc)
	if err := decodeInto(resp, doc); err != nil {
		return nil, err
	}
	return doc, nil
}
