package main

import (
	"testing"
	"time"
)

func TestSpeed(t *testing.T) {
	h := &hostClock{rates: []float64{refNominal / 2, refNominal, refNominal / 2}}
	if got := h.speed(); got != 0.5 {
		t.Errorf("speed = %v, want the median rate over nominal, 0.5", got)
	}
}

func TestTickSamplesWhenDue(t *testing.T) {
	now := time.Now()
	var none *hostClock
	if got := none.tick(now); !got.Equal(now) {
		t.Fatal("a nil clock took a sample")
	}
	var h hostClock
	end := h.tick(now)
	if len(h.rates) != 1 || h.rates[0] <= 0 || h.spent <= 0 || !end.After(now) {
		t.Fatalf("first tick: rates %v, spent %v, end after now %v", h.rates, h.spent, end.After(now))
	}
	if got := h.tick(end); !got.Equal(end) || len(h.rates) != 1 {
		t.Fatalf("a tick before calibEvery elapsed took another sample")
	}
	h.tick(end.Add(calibEvery))
	if len(h.rates) != 2 {
		t.Fatalf("a due tick took no sample")
	}
}
