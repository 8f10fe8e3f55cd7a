package main

import (
	"context"
	"math"
	"sync"
	"time"
)

// sample is one request of an open-loop phase. Times are offsets from the
// phase start: Due is when the schedule wanted the request sent, Sent when a
// client connection actually took it, Done when its reply was read.
type sample struct {
	Due, Sent, Done time.Duration
	Err             error
}

// Latency is the request's time from when it was due to its reply, so a
// stall that delays later sends is charged to every request it delays.
func (s sample) Latency() time.Duration { return s.Done - s.Due }

// Late is how far behind the schedule the generator sent the request.
func (s sample) Late() time.Duration { return s.Sent - s.Due }

// openLoop sends n requests at a fixed rate (requests per second) over conns
// concurrent client connections and returns one sample per request, in
// schedule order. Request i is due at start + i/rate whatever happened to the
// earlier ones; when every connection is busy it waits for one, and that wait
// counts in its latency. do(i) performs request i and reports its failure.
// openLoop returns once every request has finished.
func openLoop(ctx context.Context, rate float64, n, conns int, do func(i int) error) []sample {
	samples := make([]sample, n)
	if n == 0 {
		return samples
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				samples[i].Sent = time.Since(start)
				samples[i].Err = do(i)
				samples[i].Done = time.Since(start)
			}
		}()
	}
	interval := float64(time.Second) / rate
	for i := 0; i < n; i++ {
		due := time.Duration(float64(i) * interval)
		samples[i].Due = due
		if wait := due - time.Since(start); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
			}
		}
		if ctx.Err() != nil {
			// Requests never sent count as failed at their due time.
			for j := i; j < n; j++ {
				d := time.Duration(float64(j) * interval)
				samples[j] = sample{Due: d, Sent: d, Done: d, Err: ctx.Err()}
			}
			break
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return samples
}

// failedLatency is the latency charged to a failed or refused request, so
// it misses any limit: the client's timeout.
const failedLatency = 10 * time.Second

// phaseResult reduces one open-loop phase.
type phaseResult struct {
	Rate    float64
	Sent    int
	Failed  int
	Latency summary   // ms from due time; a failure counts as failedLatency
	Late    summary   // ms the generator ran behind schedule
	Service summary   // ms from send to reply, successes only
	EndLate float64   // median ms behind schedule of the last tenth of requests
	Windows []float64 // latency medians of consecutive windowSpan windows
}

// windowSpan is the length of schedule a latency window covers. A run's
// median latency is the median of its window medians, so a stall of the
// shared host that slows a few windows moves it little.
const windowSpan = time.Second

// windowMedians splits latencies, in schedule order at the given rate, into
// consecutive windows of windowSpan and returns each window's median. The
// remainder too short for a window of its own joins the last window; a
// phase shorter than one window is one window.
func windowMedians(rate float64, lat []float64) []float64 {
	if len(lat) == 0 || rate <= 0 {
		return nil
	}
	per := max(1, int(math.Round(rate*windowSpan.Seconds())))
	n := max(1, len(lat)/per)
	out := make([]float64, n)
	for w := range out {
		hi := (w + 1) * per
		if w == n-1 {
			hi = len(lat)
		}
		out[w] = median(lat[w*per : hi])
	}
	return out
}

// reduce summarizes samples taken at the given offered rate.
func reduce(rate float64, samples []sample) phaseResult {
	r := phaseResult{Rate: rate, Sent: len(samples)}
	lat := make([]float64, 0, len(samples))
	late := make([]float64, 0, len(samples))
	var service []float64
	for _, s := range samples {
		late = append(late, ms(s.Late()))
		if s.Err != nil {
			r.Failed++
			lat = append(lat, ms(failedLatency))
			continue
		}
		lat = append(lat, ms(s.Latency()))
		service = append(service, ms(s.Done-s.Sent))
	}
	r.Latency = summarize(lat)
	r.Windows = windowMedians(rate, lat)
	r.Late = summarize(late)
	if len(late) > 0 {
		r.EndLate = median(late[len(late)-max(1, len(late)/10):])
	}
	r.Service = summarize(service)
	return r
}

// meets reports whether the phase met the latency limit: no request failed
// (a failure misses any limit), the tail stayed under limitMS, and there was
// no growing backlog — the last tenth of the requests went out, at the
// median, within half the limit of their due time. A stall the generator
// recovers from shows in the tail; one it never recovers from shows here.
func (r phaseResult) meets(limitMS float64) bool {
	if r.Sent == 0 || r.Failed > 0 {
		return false
	}
	return r.Latency.Tail < limitMS && r.EndLate < limitMS/2
}
