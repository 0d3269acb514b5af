package main

import (
	"strconv"
	"time"
)

// The hosts this benchmark runs on share their CPUs with other guests:
// over tens of seconds the same fixed work runs up to a third slower,
// and at times the host takes the CPUs away altogether for milliseconds
// (steal time), which swamps a real change in any timing figure. Two
// things keep the figures steady. Wall-clock metrics are medians over
// slots, which a stall hitting a minority of slots does not move. And
// each run interleaves short samples of a fixed reference workload with
// its own work: the median sample rate over a nominal rate is the host's
// speed factor, and timing metrics are reported for a nominal host,
// times multiplied by the factor and rates divided by it. The raw
// figures are printed beside them, with the time the host stole.

// refNominal is the reference workload's typical rate, in units per
// second, on the host class the benchmark was defined on (2 vCPUs of a
// KVM guest on an AVX-512 Xeon). Only ratios to it matter.
const refNominal = 16000.0

// calibEvery is how often a run pauses for a reference sample, and
// calibFor how long each sample lasts.
const (
	calibEvery = 200 * time.Millisecond
	calibFor   = 4 * time.Millisecond
)

// refLits and refBuf are the reference workload's inputs: float literals
// of the kind the wire codec parses, and a 1 MiB buffer, the order of
// the learner's state and a paper-scale request.
var (
	refLits = func() []string {
		lits := make([]string, 64)
		for i := range lits {
			lits[i] = strconv.FormatFloat(float64(i)*0.7310585786300049+1/float64(i+3), 'g', -1, 64)
		}
		return lits
	}()
	refBuf = make([]uint64, 1<<17)
)

// refUnit is one unit of reference work: parse and hash the literals,
// then walk the buffer with a cache-line stride. It returns a checksum
// so the work cannot be elided.
func refUnit() uint64 {
	h := uint64(14695981039346656037) // FNV-1a
	for _, s := range refLits {
		f, _ := strconv.ParseFloat(s, 64) // the literals are well-formed
		h = (h ^ uint64(f*1e6)) * 1099511628211
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * 1099511628211
		}
	}
	for i := 0; i < len(refBuf); i += 8 {
		refBuf[i] += h
		h ^= refBuf[i]
	}
	return h
}

// refSink keeps refUnit's result live.
var refSink uint64

// refRun runs the reference workload for about d and returns how many
// units it completed.
func refRun(d time.Duration) int {
	t0 := time.Now()
	var s uint64
	for n := 1; ; n++ {
		s += refUnit()
		if time.Since(t0) >= d {
			refSink += s
			return n
		}
	}
}

// hostClock samples the host's speed through one run.
type hostClock struct {
	rates []float64     // per sample, units per second
	spent time.Duration // wall time in reference samples
	next  time.Time
}

// sample takes a reference sample and returns the time it ended.
func (h *hostClock) sample() time.Time {
	t0 := time.Now()
	n := refRun(calibFor)
	end := time.Now()
	d := end.Sub(t0)
	h.rates = append(h.rates, float64(n)/d.Seconds())
	h.spent += d
	h.next = end.Add(calibEvery)
	return end
}

// tick takes a sample if one is due at now (never on a nil clock). It
// returns the time the caller's work resumes: now, or the sample's end.
func (h *hostClock) tick(now time.Time) time.Time {
	if h == nil || now.Before(h.next) {
		return now
	}
	return h.sample()
}

// asMeasured is the speed factor that leaves figures as measured.
const asMeasured = 1.0

// speed is the run's host speed factor: the median sample rate over
// nominal, below 1 on a slow host. Multiply a time by it, divide a rate
// by it.
func (h *hostClock) speed() float64 { return median(h.rates) / refNominal }
