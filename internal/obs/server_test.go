package obs

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
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
