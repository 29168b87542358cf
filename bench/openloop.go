package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// maxInFlight caps the requests an open-loop phase may have outstanding;
// past it a request is refused and counts as failed.
const maxInFlight = 16384

// phase is one open-loop traffic phase: requests fall due on a fixed
// schedule whether or not earlier ones have completed, so a slow server
// receives the same load as a fast one and its queue is free to grow.
type phase struct {
	name     string
	rate     float64 // requests due per second
	duration time.Duration
	// overload marks a rate offered to find capacity, beyond what the
	// server can sustain: its backlog grows for as long as it lasts.
	overload bool
}

// phaseStats is what a phase observed. Every latency runs from the instant
// the request was due, not from when it was sent, so time the generator or
// the server stalled is charged to the requests that were waiting.
type phaseStats struct {
	phase
	started                          time.Time
	sent, succeeded, failed, refused int
	// latMs holds the latency of every request that succeeded, from its
	// due time, in request order.
	latMs []float64
	// completedInWindow counts requests that finished before the phase's
	// nominal end: the throughput the server sustained under this offer.
	completedInWindow int
	genLateMsMax      float64
	inFlightMax       int64
	backlogMid        int64
	backlogEnd        int64
	wallS             float64
}

// launcher starts one request. The benchmark's is `go f()`; the generator
// test substitutes one that stalls to check the stall is charged correctly.
type launcher func(f func())

func spawn(f func()) { go f() }

// runPhase drives one phase from the calling goroutine — the single
// generator — and returns once every request it sent has completed. call
// performs request i and reports whether it succeeded.
func runPhase(p phase, launch launcher, call func(i int) bool) phaseStats {
	n := int(p.rate * p.duration.Seconds())
	st := phaseStats{phase: p}
	lat := make([]time.Duration, n)
	done := make([]time.Duration, n) // completion time since phase start
	ok := make([]bool, n)
	var inFlight, inFlightMax atomic.Int64
	var wg sync.WaitGroup
	interval := float64(time.Second) / p.rate
	start := time.Now()
	st.started = start
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) * interval))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if late := ms(time.Since(due).Seconds()); late > st.genLateMsMax {
			st.genLateMsMax = late
		}
		if i == n/2 {
			st.backlogMid = inFlight.Load()
		}
		if inFlight.Load() >= maxInFlight {
			st.refused++
			continue
		}
		st.sent++
		cur := inFlight.Add(1)
		for {
			prev := inFlightMax.Load()
			if cur <= prev || inFlightMax.CompareAndSwap(prev, cur) {
				break
			}
		}
		wg.Add(1)
		launch(func() {
			defer wg.Done()
			ok[i] = call(i)
			end := time.Now()
			lat[i], done[i] = end.Sub(due), end.Sub(start)
			inFlight.Add(-1)
		})
	}
	if d := time.Until(start.Add(p.duration)); d > 0 {
		time.Sleep(d)
	}
	st.backlogEnd = inFlight.Load()
	wg.Wait()
	st.wallS = time.Since(start).Seconds()
	st.inFlightMax = inFlightMax.Load()
	for i := range ok {
		if !ok[i] {
			continue
		}
		st.succeeded++
		st.latMs = append(st.latMs, ms(lat[i].Seconds()))
		if done[i] <= p.duration {
			st.completedInWindow++
		}
	}
	st.failed = st.sent - st.succeeded
	return st
}
