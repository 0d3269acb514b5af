package main

import (
	"strings"
	"testing"
	"time"
)

// A /proc/<pid>/stat line whose command name holds a space and a ')'.
const statFixture = "4242 (lfs cd) x) S 1 4242 4242 0 -1 4194560 1523 0 0 0 317 20 0 0 20 0 7 0 123456 1234567 3520 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n"

const statusFixture = `Name:	lfscd
Umask:	0022
State:	S (sleeping)
VmPeak:	 1240012 kB
VmSize:	 1240012 kB
VmHWM:	   14484 kB
VmRSS:	   14100 kB
Threads:	7
`

const ioFixture = `rchar: 287868134
wchar: 9075743
syscr: 9989
syscw: 3034
read_bytes: 0
write_bytes: 4096
cancelled_write_bytes: 0
`

func TestParseStat(t *testing.T) {
	u, s, err := parseStat(statFixture)
	if err != nil {
		t.Fatal(err)
	}
	if u != 317 || s != 20 {
		t.Fatalf("utime, stime = %d, %d; want 317, 20", u, s)
	}
	if _, _, err := parseStat("4242 lfscd S 1"); err == nil {
		t.Error("a line without a command field parsed")
	}
	if _, _, err := parseStat("4242 (lfscd) S 1 2 3"); err == nil {
		t.Error("a truncated line parsed")
	}
}

func TestParseStatusHWM(t *testing.T) {
	kb, err := parseStatusHWM(statusFixture)
	if err != nil || kb != 14484 {
		t.Fatalf("VmHWM = %d, %v; want 14484", kb, err)
	}
	if _, err := parseStatusHWM("Name:\tlfscd\nVmRSS:\t 1 kB\n"); err == nil {
		t.Error("status without VmHWM parsed")
	}
}

func TestParseIO(t *testing.T) {
	rc, wc, sr, sw, err := parseIO(ioFixture)
	if err != nil {
		t.Fatal(err)
	}
	if rc != 287868134 || wc != 9075743 || sr != 9989 || sw != 3034 {
		t.Fatalf("io = %d %d %d %d", rc, wc, sr, sw)
	}
	if _, _, _, _, err := parseIO("rchar: 1\nwchar: 2\n"); err == nil {
		t.Error("io without syscall counts parsed")
	}
}

func TestParseStolen(t *testing.T) {
	text := "cpu  180457 0 21600 472358 392 0 5869 3284 0 0\ncpu0 100501 0 12441 252944 195 0 3322 2448 0 0\n"
	d, err := parseStolen(text)
	if err != nil || d != 32840*time.Millisecond {
		t.Fatalf("stolen = %v, %v; want 32.84s", d, err)
	}
	if _, err := parseStolen("cpu0 1 2 3\n"); err == nil {
		t.Error("a stat file without the aggregate line parsed")
	}
}

func TestParseMemstats(t *testing.T) {
	doc := `{"cmdline": ["lfscd"], "lfsc_serve": {"slot": 3}, "memstats": {"Alloc": 1, "Mallocs": 52371, "Frees": 50000, "PauseTotalNs": 981234, "NumGC": 12}}`
	m, err := parseMemstats(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if m.Mallocs != 52371 || m.PauseTotalNs != 981234 || m.NumGC != 12 {
		t.Fatalf("memstats = %+v", m)
	}
	if _, err := parseMemstats(strings.NewReader(`{"cmdline": []}`)); err == nil {
		t.Error("a document without memstats parsed")
	}
}

func TestProcSnapCPU(t *testing.T) {
	p := procSnap{UTime: 317, STime: 20}
	if got := p.cpuUS(); got != 3.37e6 {
		t.Fatalf("cpuUS = %v, want 3.37e6", got)
	}
}

func TestServingAddr(t *testing.T) {
	addr, ok := servingAddr("lfscd: serving http://127.0.0.1:36517/lfsc/status (M=30 c=20)")
	if !ok || addr != "127.0.0.1:36517" {
		t.Fatalf("servingAddr = %q, %v", addr, ok)
	}
	for _, line := range []string{"lfscd: restored x", "lfscd: serving http:///lfsc", ""} {
		if _, ok := servingAddr(line); ok {
			t.Errorf("servingAddr(%q) matched", line)
		}
	}
}

func TestStderrLogSplitWrites(t *testing.T) {
	l := newStderrLog()
	for _, chunk := range []string{"lfscd: scenario x\nlfscd: serv", "ing http://127.0.0.1:9/lfsc/status\npartial"} {
		if _, err := l.Write([]byte(chunk)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case a := <-l.addr:
		if a != "127.0.0.1:9" {
			t.Fatalf("addr = %q", a)
		}
	default:
		t.Fatal("no address from a boot line split across writes")
	}
	want := "lfscd: scenario x\nlfscd: serving http://127.0.0.1:9/lfsc/status\npartial"
	if tail := l.tail(); tail != want {
		t.Fatalf("tail = %q", tail)
	}
}
