package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// clock is the time source of the open-loop generator; tests substitute a
// virtual one.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// poissonSchedule returns the due offsets of independent arrivals at rate
// per second over window, drawn from seed: exponential gaps, so bursts and
// lulls occur as they do with unrelated users.
func poissonSchedule(seed int64, rate float64, window time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var due []time.Duration
	var t float64
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= window {
			return due
		}
		due = append(due, d)
	}
}

// openLoop issues request k once its due time start+due[k] has come,
// whatever happened to earlier requests, and returns how late the generator
// ran at worst. issue receives the due instant so the request's latency is
// measured from it: a stall of the generator or of the server then counts
// against every request that should have been sent during it, which a
// latency measured from the actual send would hide.
func openLoop(clk clock, start time.Time, due []time.Duration, issue func(k int, dueAt time.Time)) time.Duration {
	var maxLate time.Duration
	for k, d := range due {
		at := start.Add(d)
		now := clk.Now()
		if wait := at.Sub(now); wait > 0 {
			clk.Sleep(wait)
			now = clk.Now()
		}
		if late := now.Sub(at); late > maxLate {
			maxLate = late
		}
		issue(k, at)
	}
	return maxLate
}

// served is what the load generators keep of one request: its timing and
// the serving core's batching figures. The response itself is checked as
// it arrives, by predictFunc, so no per-request record holds it.
type served struct {
	latency   time.Duration
	queueWait time.Duration
	batchSize int32
	failed    bool
}

// predictFunc serves the example in row, takes the latency from since as
// soon as the reply is back, then checks the reply and returns the record.
type predictFunc func(row int, since time.Time) served

// runOpenLoop drives predict from one generator goroutine along the arrival
// schedule due, recording request k in log[k]; each request runs on its own
// goroutine so a slow reply never delays the next send. log is allocated by
// the caller, before the phases whose heap is measured.
func runOpenLoop(predict predictFunc, rows []int, due []time.Duration, log []served) time.Duration {
	var wg sync.WaitGroup
	wg.Add(len(due))
	late := openLoop(wallClock{}, time.Now(), due, func(k int, at time.Time) {
		go func() {
			defer wg.Done()
			log[k] = predict(rows[k%len(rows)], at)
		}()
	})
	wg.Wait()
	return late
}

// runClosedLoop runs one caller goroutine per log, each sending its next
// request only after the previous one returned, until window has passed.
// Caller c records into logs[c] up to its capacity, allocated beforehand,
// and beyond it only counts; logs[c] is left holding its records. It returns
// the counts of requests served and failed.
func runClosedLoop(predict predictFunc, rows []int, logs [][]served, window time.Duration) (n, failed int) {
	type tally struct{ n, failed int }
	tallies := make([]tally, len(logs))
	var next atomic.Int64
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	wg.Add(len(logs))
	for c := range logs {
		go func() {
			defer wg.Done()
			log := logs[c][:0]
			for time.Now().Before(deadline) {
				k := next.Add(1) - 1
				r := predict(rows[int(k)%len(rows)], time.Now())
				if len(log) < cap(log) {
					log = append(log, r)
				}
				tallies[c].n++
				if r.failed {
					tallies[c].failed++
				}
			}
			logs[c] = log
		}()
	}
	wg.Wait()
	for _, t := range tallies {
		n += t.n
		failed += t.failed
	}
	return n, failed
}
