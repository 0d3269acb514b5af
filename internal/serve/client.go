package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"
)

// Client is a typed wrapper over the daemon's HTTP API, used by the
// lfscload replayer and the serve tests. It speaks binary frames on the
// three data-plane endpoints (append-based encoders, in-place response
// parsing into reusable buffers; see frameContentType) over a pool of
// keep-alive connections: a call checks a connection out, sends the
// whole request in one write, reads the reply with http.ReadResponse on
// the calling goroutine and hands the connection back, so no request
// crosses a goroutine. Concurrent calls ride separate connections. It
// counts connection reuse so a load generator can prove it is not
// bottlenecking the daemon it measures.
type Client struct {
	addr string

	// idle holds the kept-alive connections between calls, each with its
	// request and reply scratch. A channel, not sync.Pool: a connection
	// must survive GC. Its capacity caps the idle connections kept, high
	// enough that every worker of a concurrent load generator keeps its
	// own instead of re-dialing and measuring its connection churn.
	idle chan *cliConn

	connNew    atomic.Uint64
	connReused atomic.Uint64
}

// clientTimeout bounds one call, from the dial to the last reply byte.
const clientTimeout = 30 * time.Second

// cliConn is one keep-alive connection and its per-request scratch.
type cliConn struct {
	nc   net.Conn // nil once closed
	br   *bufio.Reader
	head []byte // request line and headers
	out  []byte // request body
	in   []byte // reply body
	// vec backs wv, the head+body vectored write, so it allocates nothing.
	vec [2][]byte
	wv  net.Buffers
}

// NewClient targets the daemon at addr (host:port, no scheme).
func NewClient(addr string) *Client {
	return &Client{addr: addr, idle: make(chan *cliConn, 128)}
}

// ConnStats returns how many connections the client opened and how many
// requests rode an existing one.
func (c *Client) ConnStats() (created, reused uint64) {
	return c.connNew.Load(), c.connReused.Load()
}

// conn checks out an idle connection, or a new one that the request
// dials.
func (c *Client) conn() *cliConn {
	select {
	case cc := <-c.idle:
		c.connReused.Add(1)
		return cc
	default:
		return &cliConn{}
	}
}

// put hands a connection back to the idle pool; a closed one, or one
// the full pool has no room for, is dropped.
func (c *Client) put(cc *cliConn) {
	if cc.nc == nil {
		return
	}
	select {
	case c.idle <- cc:
	default:
		cc.close()
	}
}

func (cc *cliConn) close() {
	if cc.nc != nil {
		cc.nc.Close()
		cc.nc = nil
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

// post sends the frame in cc.out to path; see do.
func (c *Client) post(path string, cc *cliConn) error {
	return c.do(cc, http.MethodPost, path, path)
}

// do sends a request on cc — for a POST, the frame in cc.out is its
// body — and reads the reply body into cc.in. A non-200 reply, whose
// body is the daemon's JSON error envelope, becomes ErrShed (429),
// ErrLate (410) or an error carrying the status and the envelope's
// message; label names the call in every error. On nil error the caller
// parses cc.in and then hands cc to put; on error do already has.
func (c *Client) do(cc *cliConn, method, path, label string) error {
	h := append(cc.head[:0], method...)
	h = append(h, ' ')
	h = append(h, path...)
	h = append(h, " HTTP/1.1\r\nHost: "...)
	h = append(h, c.addr...)
	if method == http.MethodPost {
		h = append(h, "\r\nContent-Type: "+frameContentType+"\r\nContent-Length: "...)
		h = strconv.AppendInt(h, int64(len(cc.out)), 10)
	}
	cc.head = append(h, "\r\n\r\n"...)

	hr, err := c.send(cc, time.Now().Add(clientTimeout))
	if err == nil {
		// The body is read to its end or the connection is dropped, so
		// hr.Body needs no Close.
		if cc.in, err = readReply(cc.in[:0], hr.Body); err != nil {
			err = fmt.Errorf("read: %w", err)
		}
	}
	if err != nil {
		cc.close()
		return fmt.Errorf("serve client: %s: %w", label, err)
	}
	if hr.Close {
		cc.close()
	}
	if hr.StatusCode == http.StatusOK {
		return nil
	}
	msg, accepted, ok := parseErrorBody(cc.in)
	if !ok {
		msg = string(cc.in)
	}
	c.put(cc)
	switch hr.StatusCode {
	case http.StatusTooManyRequests:
		return &ErrShed{Msg: msg, Accepted: accepted}
	case http.StatusGone:
		return &ErrLate{Msg: msg}
	}
	return fmt.Errorf("serve client: %s: %d: %s", label, hr.StatusCode, msg)
}

// send writes cc's request and reads the reply's status line and headers,
// all by the deadline. A pooled connection that fails before the first
// reply byte (a broken write, or EOF or a reset where the reply should
// start) is one the daemon closed while it sat idle, without reading the
// request: it is redialed and the request sent once more. Any other
// failure is returned and the request never resent, since the daemon may
// have acted on it.
func (c *Client) send(cc *cliConn, deadline time.Time) (*http.Response, error) {
	resend := cc.nc != nil
	for {
		if cc.nc == nil {
			if err := c.dial(cc, deadline); err != nil {
				return nil, err
			}
		}
		err := cc.nc.SetDeadline(deadline)
		if err == nil {
			cc.wv = append(cc.vec[:0], cc.head, cc.out)
			_, err = cc.wv.WriteTo(cc.nc)
		}
		if err == nil {
			_, err = cc.br.Peek(1)
		}
		if err == nil {
			return http.ReadResponse(cc.br, nil)
		}
		if !resend || !closedByPeer(err) {
			return nil, err
		}
		resend = false
		cc.close()
	}
}

// dial connects cc to the daemon.
func (c *Client) dial(cc *cliConn, deadline time.Time) error {
	d := net.Dialer{Deadline: deadline}
	nc, err := d.Dial("tcp", c.addr)
	if err != nil {
		return err
	}
	c.connNew.Add(1)
	cc.nc = nc
	if cc.br == nil {
		cc.br = bufio.NewReader(nc)
	} else {
		cc.br.Reset(nc)
	}
	return nil
}

// closedByPeer reports whether err is how I/O on a connection the peer
// has closed fails: EOF, a reset or a broken pipe.
func closedByPeer(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)
}

// readReply reads a reply body to its end into dst, reusing its
// capacity. It fails once the body passes maxWireBody, the daemon's own
// bound on a request body, so a peer on the daemon's address cannot make
// the client buffer without limit.
func readReply(dst []byte, r io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):min(cap(dst), maxWireBody+1)])
		dst = dst[:len(dst)+n]
		switch {
		case len(dst) > maxWireBody:
			return dst, fmt.Errorf("reply body over %d bytes", maxWireBody)
		case err == io.EOF:
			return dst, nil
		case err != nil:
			return dst, err
		}
	}
}

// SubmitInto posts task arrivals and parses the decision into resp,
// reusing resp.Assigned. The allocation-lean path for replay loops.
func (c *Client) SubmitInto(req *SubmitRequest, resp *SubmitResponse) error {
	cc := c.conn()
	cc.out = appendStepFrame(cc.out[:0], 0, nil, req.Tasks, req.Close)
	if err := c.post("/v1/submit", cc); err != nil {
		return err
	}
	err := parseSubmitFrame(cc.in, resp)
	c.put(cc)
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
	cc := c.conn()
	cc.out = appendReportFrame(cc.out[:0], req.Slot, req.Reports)
	if err := c.post("/v1/report", cc); err != nil {
		return nil, err
	}
	var resp ReportResponse
	err := parseReportFrame(cc.in, &resp)
	c.put(cc)
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
	cc := c.conn()
	cc.out = appendStepFrame(cc.out[:0], repSlot, reports, tasks, close)
	if err := c.post("/v1/step", cc); err != nil {
		return err
	}
	err := parseStepFrame(cc.in, resp)
	c.put(cc)
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

// Stats fetches the daemon's serving counters. A non-200 reply is an
// error carrying its status and message, never a zero Stats.
func (c *Client) Stats() (*Stats, error) {
	cc := c.conn()
	cc.out = cc.out[:0]
	if err := c.do(cc, http.MethodGet, "/v1/stats", "stats"); err != nil {
		return nil, err
	}
	var st Stats
	err := json.Unmarshal(cc.in, &st)
	c.put(cc)
	if err != nil {
		return nil, fmt.Errorf("serve client: stats: decode: %w", err)
	}
	return &st, nil
}
