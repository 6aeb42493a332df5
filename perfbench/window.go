package main

import (
	"sort"
	"time"
)

// windowWidth cuts a timed phase into windows. Throughput and latency
// percentiles are computed per window and reported as the median over
// windows, so a burst of load from outside the benchmark moves a few
// windows instead of the whole figure.
const windowWidth = 500 * time.Millisecond

// windowSamples bounds the latency samples kept per window and worker;
// beyond it a reproducible reservoir sample is kept, so the benchmark's
// own memory does not grow with throughput.
const windowSamples = 1 << 14

// windows is one worker's record of a timed phase: decisions completed
// and sampled latencies per window of the phase clock.
type windows struct {
	count []int64
	lat   [][]int64
	x     uint64 // LCG state choosing reservoir slots
}

func newWindows(d time.Duration) *windows {
	n := int(d/windowWidth) + 1
	return &windows{count: make([]int64, n), lat: make([][]int64, n), x: 1}
}

// add records a decision that completed at phase-clock time at and took
// ns nanoseconds.
func (w *windows) add(at time.Duration, ns int64) {
	i := int(at / windowWidth)
	if i >= len(w.count) {
		i = len(w.count) - 1
	}
	w.count[i]++
	s := w.lat[i]
	if len(s) < windowSamples {
		w.lat[i] = append(s, ns)
		return
	}
	w.x = w.x*6364136223846793005 + 1442695040888963407
	if j := (w.x >> 11) % uint64(w.count[i]); j < windowSamples {
		s[j] = ns
	}
}

// summarizeWindows merges the workers' records of a phase whose clock ran
// for length and returns the median over full windows of the decision
// rate and of the latency p50 and p99, latencies in ns. A phase shorter
// than one window counts as one window of its own length.
func summarizeWindows(ws []*windows, length time.Duration) (rate, p50, p99 float64) {
	full := int(length / windowWidth)
	width := windowWidth
	if full == 0 {
		full, width = 1, length
	}
	var rates, p50s, p99s []float64
	for i := 0; i < full && i < len(ws[0].count); i++ {
		var n int64
		var lat []int64
		for _, w := range ws {
			n += w.count[i]
			lat = append(lat, w.lat[i]...)
		}
		if len(lat) == 0 {
			continue
		}
		sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
		rates = append(rates, float64(n)/width.Seconds())
		p50s = append(p50s, quantile(lat, 0.50))
		p99s = append(p99s, quantile(lat, 0.99))
	}
	return median(rates), median(p50s), median(p99s)
}
