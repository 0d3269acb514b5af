package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"
)

// clockTickUS is one /proc stat clock tick in microseconds. Linux reports
// utime/stime in USER_HZ, which is 100 on every mainstream architecture.
const clockTickUS = 10000

// procSnap is one reading of a process's resource counters, taken from
// outside the process through /proc.
type procSnap struct {
	UTime, STime uint64 // CPU clock ticks (/proc/<pid>/stat fields 14, 15)
	HWMKB        uint64 // peak resident set, kB (/proc/<pid>/status VmHWM)
	RChar, WChar uint64 // bytes through read/write syscalls (/proc/<pid>/io)
	SyscR, SyscW uint64 // read/write syscall counts (/proc/<pid>/io)
}

// cpuUS is the process's user+sys CPU time in microseconds.
func (p procSnap) cpuUS() float64 { return float64(p.UTime+p.STime) * clockTickUS }

// readProc samples pid's counters ("self" when pid is 0).
func readProc(pid int) (procSnap, error) {
	dir := "/proc/self"
	if pid != 0 {
		dir = "/proc/" + strconv.Itoa(pid)
	}
	var s procSnap
	stat, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return s, err
	}
	if s.UTime, s.STime, err = parseStat(string(stat)); err != nil {
		return s, err
	}
	status, err := os.ReadFile(dir + "/status")
	if err != nil {
		return s, err
	}
	if s.HWMKB, err = parseStatusHWM(string(status)); err != nil {
		return s, err
	}
	io, err := os.ReadFile(dir + "/io")
	if err != nil {
		return s, err
	}
	s.RChar, s.WChar, s.SyscR, s.SyscW, err = parseIO(string(io))
	return s, err
}

// parseStat extracts utime and stime from a /proc/<pid>/stat line. The
// command name (field 2) may hold spaces and parentheses, so fields are
// counted from the last ')'.
func parseStat(text string) (utime, stime uint64, err error) {
	end := strings.LastIndexByte(text, ')')
	if end < 0 {
		return 0, 0, fmt.Errorf("proc stat: no command field in %q", text)
	}
	// After ")" come fields 3 (state) onwards; utime is field 14.
	f := strings.Fields(text[end+1:])
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("proc stat: %d fields after the command, want >= 13", len(f))
	}
	if utime, err = strconv.ParseUint(f[11], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	if stime, err = strconv.ParseUint(f[12], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return utime, stime, nil
}

// parseStatusHWM extracts VmHWM (kB) from /proc/<pid>/status.
func parseStatusHWM(text string) (uint64, error) {
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok || k != "VmHWM" {
			continue
		}
		num, unit, _ := strings.Cut(strings.TrimSpace(v), " ")
		if unit != "kB" {
			return 0, fmt.Errorf("proc status: VmHWM unit %q, want kB", unit)
		}
		return strconv.ParseUint(num, 10, 64)
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

// parseIO extracts rchar, wchar, syscr and syscw from /proc/<pid>/io.
func parseIO(text string) (rchar, wchar, syscr, syscw uint64, err error) {
	want := map[string]*uint64{"rchar": &rchar, "wchar": &wchar, "syscr": &syscr, "syscw": &syscw}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		dst := want[k]
		if !ok || dst == nil {
			continue
		}
		if *dst, err = strconv.ParseUint(strings.TrimSpace(v), 10, 64); err != nil {
			return 0, 0, 0, 0, fmt.Errorf("proc io: %s: %w", k, err)
		}
		delete(want, k)
	}
	if len(want) > 0 {
		return 0, 0, 0, 0, fmt.Errorf("proc io: %d counters missing", len(want))
	}
	return rchar, wchar, syscr, syscw, nil
}

// readStolen returns the time the host has stolen from this guest's
// CPUs since boot, summed over CPUs (/proc/stat "cpu" line, field 8).
func readStolen() (time.Duration, error) {
	text, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	return parseStolen(string(text))
}

// parseStolen extracts the aggregate steal time from /proc/stat.
func parseStolen(text string) (time.Duration, error) {
	line, _, _ := strings.Cut(text, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("proc stat: no aggregate cpu line with a steal field")
	}
	ticks, err := strconv.ParseUint(f[8], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: steal: %w", err)
	}
	return time.Duration(ticks) * clockTickUS * time.Microsecond, nil
}

// memStats is the part of the Go runtime's memstats the benchmark reads
// from a daemon's /debug/vars.
type memStats struct {
	Mallocs      uint64 `json:"Mallocs"`
	PauseTotalNs uint64 `json:"PauseTotalNs"`
	NumGC        uint32 `json:"NumGC"`
}

// parseMemstats extracts the memstats block of an expvar document.
func parseMemstats(r io.Reader) (memStats, error) {
	var doc struct {
		Memstats *memStats `json:"memstats"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return memStats{}, fmt.Errorf("expvar: %w", err)
	}
	if doc.Memstats == nil {
		return memStats{}, fmt.Errorf("expvar: no memstats")
	}
	return *doc.Memstats, nil
}

// fetchMemstats reads the daemon's runtime memstats over /debug/vars.
func fetchMemstats(hc *http.Client, addr string) (memStats, error) {
	resp, err := hc.Get("http://" + addr + "/debug/vars")
	if err != nil {
		return memStats{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return memStats{}, fmt.Errorf("/debug/vars: status %d", resp.StatusCode)
	}
	return parseMemstats(resp.Body)
}
