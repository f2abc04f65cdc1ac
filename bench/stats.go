package main

import (
	"math"
	"sort"
	"time"
)

// sample is one completed operation: when it completed, as an offset from
// the start of the measured loop, and how long the caller waited for it.
type sample struct {
	done time.Duration
	lat  time.Duration
}

// windowStat summarises the operations that completed inside one window.
type windowStat struct {
	ops int
	// opsS is the rate as counted: ops over the window's measuring time.
	opsS float64
	// paceS is the rate the closed loops sustain outside stalls: lanes over
	// the mean op latency with the slowest tenth of the ops left out. A
	// vCPU the hypervisor deschedules for milliseconds lands in that tenth;
	// counted rates fell by a third at 10 % steal, this one by a few percent.
	paceS float64
	p50us float64
	p90us float64
}

// stallShare is the share of the slowest samples trimmedMean leaves out.
const stallShare = 0.1

// trimmedMean is the mean of an ascending slice without its highest
// stallShare; 0 for an empty slice.
func trimmedMean(sorted []float64) float64 {
	keep := sorted[:len(sorted)-int(stallShare*float64(len(sorted)))]
	if len(keep) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range keep {
		sum += x
	}
	return sum / float64(len(keep))
}

// percentile returns the p-quantile (0 ≤ p ≤ 1) of an ascending slice by
// linear interpolation between the two nearest ranks; 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median returns the middle value of xs (mean of the middle two for an even
// count) without reordering the caller's slice; 0 for an empty slice.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// latenciesUS returns the samples' latencies in microseconds, ascending.
func latenciesUS(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = micros(s.lat)
	}
	sort.Float64s(out)
	return out
}

// splitWindows attributes each lane's samples to the window their completion
// falls in: window i is period i+1 of the plan. Samples that completed
// during the warm-up period or after the last window belong to no window.
// The counted rate divides by the fixed time a window leaves the lanes (its
// length minus the calibration slot), so a stall shows as a slow window
// rather than as a long one.
func splitWindows(byLane [][]sample, p loopPlan) ([]windowStat, [][]sample) {
	buckets := make([][]sample, p.windows)
	for _, samples := range byLane {
		for _, s := range samples {
			if i := int(s.done/p.win) - 1; i >= 0 && i < p.windows {
				buckets[i] = append(buckets[i], s)
			}
		}
	}
	stats := make([]windowStat, p.windows)
	for i, b := range buckets {
		lat := latenciesUS(b)
		stats[i] = windowStat{
			ops:   len(b),
			opsS:  float64(len(b)) / (p.win - p.calib).Seconds(),
			p50us: percentile(lat, 0.50),
			p90us: percentile(lat, 0.90),
		}
		if mean := trimmedMean(lat); mean > 0 {
			stats[i].paceS = float64(len(byLane)) * 1e6 / mean
		}
	}
	return stats, buckets
}

// medianOfWindows reduces the per-window values picked by f to their median.
func medianOfWindows(ws []windowStat, f func(windowStat) float64) float64 {
	vals := make([]float64, len(ws))
	for i, w := range ws {
		vals[i] = f(w)
	}
	return median(vals)
}

// spreadPct is the run's own noise gauge: (max−min)/median of the window
// rates, in percent.
func spreadPct(ws []windowStat) float64 {
	if len(ws) == 0 {
		return 0
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, w := range ws {
		lo = math.Min(lo, w.opsS)
		hi = math.Max(hi, w.opsS)
	}
	med := medianOfWindows(ws, func(w windowStat) float64 { return w.opsS })
	if med == 0 {
		return 100
	}
	return 100 * (hi - lo) / med
}

// relDiff is |a−b| as a share of |b|; it is what the A/A check compares
// with a bound.
func relDiff(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(a-b) / math.Abs(b)
}

// iqrShare is the distance between the first and third quartile as a share
// of the median, with the quartiles Python's statistics.quantiles(n=4)
// (exclusive method) gives.
func iqrShare(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := percentile(s, 0.5)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}
