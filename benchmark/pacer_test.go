package main

import "testing"

// An open loop keeps its schedule through a stall: the requests behind
// the stalled one are due when they were always due, and their latency,
// measured from then, includes the time they waited for it.
func TestPacerDueTimesUnderAStall(t *testing.T) {
	var clock int64
	p := &pacer{
		start:    1000,
		interval: 100,
		now:      func() int64 { return clock },
		sleep:    func(ns int64) { clock += ns },
	}
	service := []int64{10, 10, 10, 450, 10, 10, 10, 10, 10, 10}
	wantLatency := []int64{10, 10, 10, 450, 360, 270, 180, 90, 10, 10}
	end := p.start + int64(len(service))*p.interval
	for i, d := range service {
		due, ok := p.next(end)
		if !ok {
			t.Fatalf("schedule ended at operation %d", i)
		}
		if want := p.start + int64(i)*p.interval; due != want {
			t.Errorf("operation %d due at %d, want %d", i, due, want)
		}
		if clock < due {
			t.Errorf("operation %d started at %d, before it was due at %d", i, clock, due)
		}
		clock += d
		if got := clock - due; got != wantLatency[i] {
			t.Errorf("operation %d: latency from due time %d, want %d", i, got, wantLatency[i])
		}
	}
	if _, ok := p.next(end); ok {
		t.Error("the schedule ran past its end")
	}
	// Operations 4, 5 and 6 started more than one interval late.
	if p.i != int64(len(service)) || p.late != 3 {
		t.Errorf("scheduled %d late %d, want %d and 3", p.i, p.late, len(service))
	}
}
