package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestServerEndpoints(t *testing.T) {
	probe := NewProbe()
	reg := NewRegistry()
	rs := reg.NewRun("LFSC", 1000)
	for i := 0; i < 42; i++ {
		span := probe.Start()
		span = probe.Lap(PhaseDecide, span)
		probe.Lap(PhaseObserve, span)
		probe.EndSlot()
		rs.RecordSlot(0.25)
	}

	srv, err := StartServer("127.0.0.1:0", probe, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	status := getBody(t, base+"/lfsc/status")
	for _, want := range []string{"lfsc status", "LFSC", "slot 42/1000", "decide", "observe", "p99"} {
		if !strings.Contains(status, want) {
			t.Fatalf("/lfsc/status missing %q:\n%s", want, status)
		}
	}

	vars := getBody(t, base+"/debug/vars")
	var parsed map[string]json.RawMessage
	if err := json.Unmarshal([]byte(vars), &parsed); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	var lfsc statusVars
	if err := json.Unmarshal(parsed["lfsc"], &lfsc); err != nil {
		t.Fatalf("lfsc expvar: %v", err)
	}
	if lfsc.Slots != 42 || len(lfsc.Runs) != 1 || lfsc.Runs[0].Policy != "LFSC" {
		t.Fatalf("lfsc expvar content: %+v", lfsc)
	}

	if body := getBody(t, base+"/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Fatal("/debug/pprof/ index missing profiles")
	}
}

// TestServerRestart pins the expvar re-publish guard: a second server (new
// probe/registry) must not panic and must serve the fresh state.
func TestServerRestart(t *testing.T) {
	p1, r1 := NewProbe(), NewRegistry()
	s1, err := StartServer("127.0.0.1:0", p1, r1, nil)
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()

	p2, r2 := NewProbe(), NewRegistry()
	r2.NewRun("Fresh", 10).RecordSlot(1)
	s2, err := StartServer("127.0.0.1:0", p2, r2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	body := getBody(t, "http://"+s2.Addr()+"/debug/vars")
	if !strings.Contains(body, "Fresh") {
		t.Fatal("expvar not re-pointed at the latest registry")
	}
}

func TestWriteStatusNilInputs(t *testing.T) {
	var sb strings.Builder
	WriteStatus(&sb, nil, nil, time.Second)
	if !strings.Contains(sb.String(), "lfsc status") {
		t.Fatalf("status header missing: %q", sb.String())
	}
}

func TestProgressLogger(t *testing.T) {
	reg := NewRegistry()
	rs := reg.NewRun("LFSC", 100)
	var sb syncBuilder
	stop := StartProgressLogger(&sb, reg, 5*time.Millisecond)
	for i := 0; i < 10; i++ {
		rs.RecordSlot(1)
		time.Sleep(2 * time.Millisecond)
	}
	stop()
	stop() // idempotent
	if out := sb.String(); !strings.Contains(out, "slots/s") {
		t.Fatalf("no progress lines written: %q", out)
	}
}

// syncBuilder is a goroutine-safe string sink for logger tests.
type syncBuilder struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *syncBuilder) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *syncBuilder) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

// TestServerClosesStalledHeader is the slow-client limit: a connection
// that stalls mid-header is closed once readHeaderTimeout passes instead
// of pinning a server goroutine for as long as the client likes.
func TestServerClosesStalledHeader(t *testing.T) {
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 100 * time.Millisecond
	srv, err := StartServer("127.0.0.1:0", NewProbe(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /metrics HTTP/1.1\r\nHost: lfsc\r\nAcc"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	start := time.Now()
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("stalled connection still open after %v: %v", time.Since(start).Round(time.Millisecond), err)
	}
	if el := time.Since(start); el < readHeaderTimeout/2 {
		t.Fatalf("connection closed after %v, before the header timeout", el)
	}
}

// TestServerClosesOnIgnoredBody bounds the drain of a body no route reads:
// a GET /metrics that declares a 4096-byte body and drips it, one byte
// every 50 ms, gets its 200 at once and then a closed connection, instead
// of no reply for as long as the client drips. A GET without a body keeps
// its connection alive.
func TestServerClosesOnIgnoredBody(t *testing.T) {
	srv, err := StartServer("127.0.0.1:0", NewProbe(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	reply, _ := dripRequest(t, srv.Addr(), "GET /metrics HTTP/1.1\r\nHost: lfsc\r\nContent-Length: 4096\r\n\r\n")
	if !bytes.HasPrefix(reply, []byte("HTTP/1.1 200")) {
		t.Fatalf("dripping connection got %q, want a 200", reply)
	}
	keptAlive(t, srv.Addr(), "GET /metrics HTTP/1.1\r\nHost: lfsc\r\n\r\n")
}

// TestServerBoundsSymbolBody bounds the one route that reads a body,
// pprof's symbol lookup: a POST that declares a 4096-byte body and drips
// it, one byte every 50 ms, is answered once bodyReadTimeout passes and
// its connection closed, instead of holding the handler for as long as
// the client drips. A lookup whose body arrives resolves its address and
// keeps the connection alive.
func TestServerBoundsSymbolBody(t *testing.T) {
	defer func(d time.Duration) { bodyReadTimeout = d }(bodyReadTimeout)
	bodyReadTimeout = 300 * time.Millisecond
	srv, err := StartServer("127.0.0.1:0", NewProbe(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	reply, elapsed := dripRequest(t, srv.Addr(), "POST /debug/pprof/symbol HTTP/1.1\r\nHost: lfsc\r\nContent-Length: 4096\r\n\r\n")
	if elapsed < bodyReadTimeout/2 {
		t.Fatalf("dripping connection answered after %v, before the body timeout", elapsed)
	}
	if !bytes.HasPrefix(reply, []byte("HTTP/1.1 200")) || !bytes.Contains(reply, []byte("timeout")) {
		t.Fatalf("dripping connection got %q, want a 200 naming the timeout", reply)
	}

	pc := fmt.Sprintf("%#x", reflect.ValueOf(TestServerBoundsSymbolBody).Pointer())
	for _, body := range keptAlive(t, srv.Addr(), fmt.Sprintf(
		"POST /debug/pprof/symbol HTTP/1.1\r\nHost: lfsc\r\nContent-Length: %d\r\n\r\n%s", len(pc), pc)) {
		if !strings.Contains(body, "TestServerBoundsSymbolBody") {
			t.Fatalf("symbol lookup of %s answered %q", pc, body)
		}
	}
}

// dripRequest sends head, which declares a 4096-byte body, then drips the
// body one byte every 50 ms until the server answers and closes the
// connection. It returns the reply and how long it took, and fails the
// test when no close comes within 3 s.
func dripRequest(t *testing.T, addr, head string) ([]byte, time.Duration) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, head); err != nil {
		t.Fatal(err)
	}
	answered := make(chan struct{})
	dripped := make(chan struct{})
	go func() {
		defer close(dripped)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-answered:
				return
			case <-tick.C:
			}
			if _, err := conn.Write([]byte{' '}); err != nil {
				return
			}
		}
	}()
	// The server closes the connection with drip bytes still unread, so
	// the close may arrive as a reset rather than an EOF.
	conn.SetReadDeadline(time.Now().Add(3 * time.Second)) //nolint:errcheck
	start := time.Now()
	reply, err := io.ReadAll(conn)
	elapsed := time.Since(start)
	close(answered)
	<-dripped
	if err != nil && !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("dripping connection neither answered nor closed after %v: %v (read %q)", elapsed.Round(time.Millisecond), err, reply)
	}
	return reply, elapsed
}

// keptAlive sends request twice on one connection and requires a 200 on
// a connection kept alive each time. It returns the two reply bodies.
func keptAlive(t *testing.T, addr, request string) []string {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	var bodies []string
	for i := 0; i < 2; i++ {
		if _, err := io.WriteString(conn, request); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(3 * time.Second)) //nolint:errcheck
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("request %d on a kept-alive connection: %v", i, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Close {
			t.Fatalf("request %d: status %d, close %v; want 200 on a kept-alive connection", i, resp.StatusCode, resp.Close)
		}
		bodies = append(bodies, string(body))
	}
	return bodies
}
