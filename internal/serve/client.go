package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"sync/atomic"
	"time"
)

// Client is a typed wrapper over the daemon's HTTP API, used by the
// lfscload replayer and the serve tests. It speaks binary frames on the
// three data-plane endpoints (append-based encoders, in-place response
// parsing into reusable buffers; see frameContentType) and keeps a tuned
// transport with generous per-host idle connections, counting connection
// reuse so a load generator can prove it is not bottlenecking the daemon
// it measures.
type Client struct {
	base string
	hc   *http.Client
	// ctx carries the httptrace hooks that feed the reuse counters; built
	// once so the per-request cost is a single context value lookup.
	ctx context.Context

	connNew    atomic.Uint64
	connReused atomic.Uint64

	// bufs recycles per-request scratch (encode buffer, response buffer,
	// body reader). A channel, not sync.Pool: survives GC, and the client
	// is shared by many goroutines in the overload tests.
	bufs chan *cliBuf
}

// cliBuf is one in-flight request's reusable scratch.
type cliBuf struct {
	out []byte
	in  []byte
	rd  bytes.Reader
}

// NewClient targets the daemon at addr (host:port, no scheme).
func NewClient(addr string) *Client {
	tr := &http.Transport{
		// The defaults cap idle connections per host at 2, which forces a
		// concurrent load generator to re-dial constantly and measure its
		// own connection churn instead of the daemon. Raise both caps so
		// every worker keeps its connection alive.
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 128,
		IdleConnTimeout:     90 * time.Second,
	}
	c := &Client{
		base: "http://" + addr,
		hc:   &http.Client{Timeout: 30 * time.Second, Transport: tr},
		bufs: make(chan *cliBuf, 64),
	}
	c.ctx = httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			if info.Reused {
				c.connReused.Add(1)
			} else {
				c.connNew.Add(1)
			}
		},
	})
	return c
}

// ConnStats returns how many connections the client opened and how many
// requests rode an existing one.
func (c *Client) ConnStats() (created, reused uint64) {
	return c.connNew.Load(), c.connReused.Load()
}

func (c *Client) getBuf() *cliBuf {
	select {
	case b := <-c.bufs:
		return b
	default:
		return &cliBuf{}
	}
}

func (c *Client) putBuf(b *cliBuf) {
	b.out = b.out[:0]
	b.in = b.in[:0]
	select {
	case c.bufs <- b:
	default:
	}
}

// ErrShed is returned when the daemon refused a submission with 429. For
// step requests, Accepted carries how many reports of the piggy-backed
// report part the daemon still absorbed.
type ErrShed struct {
	Msg      string
	Accepted int
}

func (e *ErrShed) Error() string { return "serve client: shed: " + e.Msg }

// ErrLate is returned when the daemon rejected a report with 410 (the
// slot had already closed).
type ErrLate struct{ Msg string }

func (e *ErrLate) Error() string { return "serve client: late report: " + e.Msg }

// post sends the frame in b.out to path and reads the response into
// b.in, mapping non-200 statuses (whose bodies are always the JSON error
// envelope) to the typed errors. The caller parses the reply frame in
// b.in on nil error.
func (c *Client) post(path string, b *cliBuf) error {
	b.rd.Reset(b.out)
	req, err := http.NewRequestWithContext(c.ctx, http.MethodPost, c.base+path, &b.rd)
	if err != nil {
		return fmt.Errorf("serve client: %s: %w", path, err)
	}
	req.Header.Set("Content-Type", frameContentType)
	req.ContentLength = int64(len(b.out))
	hr, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("serve client: %s: %w", path, err)
	}
	b.in, err = readInto(b.in[:0], hr.Body)
	hr.Body.Close()
	if err != nil {
		return fmt.Errorf("serve client: %s: read: %w", path, err)
	}
	if hr.StatusCode != http.StatusOK {
		msg, accepted, ok := parseErrorBody(b.in)
		if !ok {
			msg = string(b.in)
		}
		switch hr.StatusCode {
		case http.StatusTooManyRequests:
			return &ErrShed{Msg: msg, Accepted: accepted}
		case http.StatusGone:
			return &ErrLate{Msg: msg}
		}
		return fmt.Errorf("serve client: %s: %d: %s", path, hr.StatusCode, msg)
	}
	return nil
}

// readInto appends r's contents to dst, reusing its capacity.
func readInto(dst []byte, r io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// SubmitInto posts task arrivals and parses the decision into resp,
// reusing resp.Assigned. The allocation-lean path for replay loops.
func (c *Client) SubmitInto(req *SubmitRequest, resp *SubmitResponse) error {
	b := c.getBuf()
	b.out = appendStepFrame(b.out[:0], 0, nil, req.Tasks, req.Close)
	if err := c.post("/v1/submit", b); err != nil {
		c.putBuf(b)
		return err
	}
	err := parseSubmitFrame(b.in, resp)
	c.putBuf(b)
	if err != nil {
		return fmt.Errorf("serve client: /v1/submit: decode: %w", err)
	}
	return nil
}

// Submit posts task arrivals and returns the slot decision.
func (c *Client) Submit(req *SubmitRequest) (*SubmitResponse, error) {
	var resp SubmitResponse
	if err := c.SubmitInto(req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Report posts realised outcomes for an open slot.
func (c *Client) Report(req *ReportRequest) (*ReportResponse, error) {
	b := c.getBuf()
	b.out = appendReportFrame(b.out[:0], req.Slot, req.Reports)
	if err := c.post("/v1/report", b); err != nil {
		c.putBuf(b)
		return nil, err
	}
	var resp ReportResponse
	err := parseReportFrame(b.in, &resp)
	c.putBuf(b)
	if err != nil {
		return nil, fmt.Errorf("serve client: /v1/report: decode: %w", err)
	}
	return &resp, nil
}

// StepInto posts the batched round trip — outcome reports for slot
// repSlot plus the next cohort of tasks — and parses the combined
// acknowledgement into resp, reusing resp.Assigned. Pass an empty
// reports slice on the first step.
func (c *Client) StepInto(repSlot int, reports []TaskReport, tasks []TaskSpec, close bool, resp *StepResponse) error {
	b := c.getBuf()
	b.out = appendStepFrame(b.out[:0], repSlot, reports, tasks, close)
	if err := c.post("/v1/step", b); err != nil {
		c.putBuf(b)
		return err
	}
	err := parseStepFrame(b.in, resp)
	c.putBuf(b)
	if err != nil {
		return fmt.Errorf("serve client: /v1/step: decode: %w", err)
	}
	return nil
}

// Step posts the batched round trip and returns the combined response.
func (c *Client) Step(req *StepRequest) (*StepResponse, error) {
	var resp StepResponse
	if err := c.StepInto(req.Slot, req.Reports, req.Tasks, req.Close, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Stats fetches the daemon's serving counters.
func (c *Client) Stats() (*Stats, error) {
	hr, err := c.hc.Get(c.base + "/v1/stats")
	if err != nil {
		return nil, fmt.Errorf("serve client: stats: %w", err)
	}
	defer hr.Body.Close()
	var st Stats
	if err := json.NewDecoder(hr.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("serve client: stats: decode: %w", err)
	}
	return &st, nil
}
