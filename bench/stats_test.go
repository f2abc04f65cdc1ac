package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {0.5, 30}, {0.9, 46}, {0.25, 20}, {1, 50},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	xs := []float64{5, 1, 4, 2}
	if got := median(xs); !near(got, 3) {
		t.Errorf("median = %v, want 3", got)
	}
	if xs[0] != 5 || xs[3] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

// Three windows of 1 s after a 1 s warm-up period: the warm-up sample and
// the one past the last window belong to none, rates divide by the time a
// window leaves the lanes (its length minus the calibration slot), and the
// run's figure is the median of the per-window figures.
func TestMedianOfWindows(t *testing.T) {
	ms := time.Millisecond
	var samples []sample
	add := func(done time.Duration, lats ...time.Duration) {
		for _, l := range lats {
			samples = append(samples, sample{done: done, lat: l})
		}
	}
	add(500*ms, 999*ms)               // warm-up: dropped
	add(1500*ms, 10*ms, 20*ms, 30*ms) // window 0: 3 ops, p50 20 ms
	add(2500*ms, 100*ms)              // window 1: 1 op, p50 100 ms
	add(3999*ms, 40*ms, 60*ms)        // window 2: 2 ops, p50 50 ms
	add(4000*ms, 1*ms)                // past the end: dropped
	ws, buckets := splitWindows([][]sample{samples}, loopPlan{win: time.Second, calib: 200 * ms, windows: 3})
	if len(ws) != 3 || ws[0].ops != 3 || ws[1].ops != 1 || ws[2].ops != 2 {
		t.Fatalf("window op counts = %+v", ws)
	}
	if len(buckets[0]) != 3 {
		t.Errorf("bucket 0 holds %d samples, want 3", len(buckets[0]))
	}
	if !near(ws[0].opsS, 3/0.8) || !near(ws[0].p50us, 20000) || !near(ws[2].p50us, 50000) {
		t.Errorf("window stats = %+v", ws)
	}
	if !near(ws[0].paceS, 50) || !near(ws[1].paceS, 10) { // one lane over mean latencies of 20 ms and 100 ms
		t.Errorf("pace = %v and %v ops/s, want 50 and 10", ws[0].paceS, ws[1].paceS)
	}
	if got := medianOfWindows(ws, func(w windowStat) float64 { return w.opsS }); !near(got, 2/0.8) {
		t.Errorf("median ops/s = %v, want 2.5", got)
	}
	if got := medianOfWindows(ws, func(w windowStat) float64 { return w.p50us }); !near(got, 50000) {
		t.Errorf("median of window p50s = %v, want 50000", got)
	}
	if got := spreadPct(ws); !near(got, 100) {
		t.Errorf("spread = %v %%, want (3-1)/2 = 100", got)
	}
}

// A stall lands in the slowest tenth and leaves the trimmed mean alone.
func TestTrimmedMeanLeavesOutTheSlowestTenth(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 5000}
	if got := trimmedMean(xs); !near(got, 5) {
		t.Errorf("trimmedMean = %v, want the mean of 1..9", got)
	}
	if got := trimmedMean([]float64{7, 9}); !near(got, 8) {
		t.Errorf("trimmedMean of two = %v: nothing to leave out, want 8", got)
	}
	if got := trimmedMean(nil); got != 0 {
		t.Errorf("trimmedMean of nothing = %v, want 0", got)
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestIQRShareMatchesPython(t *testing.T) {
	xs := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got := iqrShare(xs); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("iqrShare = %v, want 1", got)
	}
	// statistics.quantiles([1.0, 1.1, 1.2, 5.0], n=4) == [1.025, 1.15, 4.05].
	if got := iqrShare([]float64{1.0, 1.1, 1.2, 5.0}); !near(got, (4.05-1.025)/1.15) {
		t.Errorf("iqrShare = %v, want %v", got, (4.05-1.025)/1.15)
	}
}
