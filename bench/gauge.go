package main

import (
	"errors"
	"io"
	"net"
	"sort"
	"sync"
	"time"
)

// The sandbox's speed drifts by tens of percent over minutes with no steal
// time reported (other guests share the host's cores, caches and clock),
// and every timing of a request path moves with it. speedGauge measures
// that speed with work that depends on nothing in the repository: two
// closed loops of loopback TCP round trips between goroutines of the
// benchmark process — the same mix of system calls, wake-ups and copies a
// log request is made of. It is read in the calibration slot that begins
// every period of a measured loop, while every lane stands still and the
// daemons are idle, and the run's gated timings are scaled to the host
// speed at which such a round trip takes refRoundTrip (see hostSpeed).
//
// Why it is worth its code, measured (README.md has the tables): an A/A of
// the unscaled benchmark failed its own bounds when the host sped up by a
// quarter between the two sets (p50_us medians 27 % apart, gauge readings
// 14.8 → 11.0 us); in the next A/A, the same 80 runs scaled and unscaled,
// the widest spread of a gated timing fell from 23 % to 16 % and the widest
// shift of a set median from 15 % to 9 %. Readings taken only before and
// after the loop fixed the shifts but not the spreads (22 %).

const (
	gaugeLoops    = 2
	gaugeRequest  = 160 // bytes, about one entry with its frame header
	gaugeResponse = 32
	// slotLen is the length of a calibration slot: ≈ 15 000 round trips on
	// each of the gauge's loops.
	slotLen = 250 * time.Millisecond
)

// refRoundTrip is the gauge reading every timing is reported at, about
// what the gauge reads on the 2-vCPU sandbox when its host is quiet.
const refRoundTrip = 16 * time.Microsecond

type speedGauge struct {
	ln    net.Listener
	conns []net.Conn
	wg    sync.WaitGroup
}

func newSpeedGauge() (*speedGauge, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	g := &speedGauge{ln: ln}
	for i := 0; i < gaugeLoops; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			g.close()
			return nil, err
		}
		g.conns = append(g.conns, c)
		s, err := ln.Accept()
		if err != nil {
			g.close()
			return nil, err
		}
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			defer s.Close()
			buf := make([]byte, gaugeRequest)
			for {
				if _, err := io.ReadFull(s, buf); err != nil {
					return // the client end was closed
				}
				if _, err := s.Write(buf[:gaugeResponse]); err != nil {
					return
				}
			}
		}()
	}
	return g, nil
}

// close ends the echo goroutines and waits for them.
func (g *speedGauge) close() {
	for _, c := range g.conns {
		c.Close()
	}
	g.ln.Close()
	g.wg.Wait()
}

// burst runs every loop for d and returns the mean round trip, the slowest
// tenth left out as in a window's pace (see windowStat).
func (g *speedGauge) burst(d time.Duration) (time.Duration, error) {
	var wg sync.WaitGroup
	trips := make([][]float64, len(g.conns)) // ns
	errs := make([]error, len(g.conns))
	for i, c := range g.conns {
		wg.Add(1)
		go func(i int, c net.Conn) {
			defer wg.Done()
			buf := make([]byte, gaugeRequest)
			t0 := time.Now()
			for last := t0; last.Sub(t0) < d; {
				if _, errs[i] = c.Write(buf); errs[i] != nil {
					return
				}
				if _, errs[i] = io.ReadFull(c, buf[:gaugeResponse]); errs[i] != nil {
					return
				}
				now := time.Now()
				trips[i] = append(trips[i], float64(now.Sub(last)))
				last = now
			}
		}(i, c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	var all []float64
	for _, t := range trips {
		all = append(all, t...)
	}
	sort.Float64s(all)
	return time.Duration(trimmedMean(all)), nil
}

// follow reads the gauge in every calibration slot of a loop that began at
// epoch. The returned function waits for the last reading and returns the
// median one.
func (g *speedGauge) follow(epoch time.Time, p loopPlan) (wait func() (time.Duration, error)) {
	var trips []float64
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i <= p.windows && err == nil; i++ {
			time.Sleep(time.Until(epoch.Add(time.Duration(i) * p.win)))
			var rt time.Duration
			// Stop a little early, so that the lanes find the loops idle.
			if rt, err = g.burst(p.calib - p.calib/16); err == nil {
				trips = append(trips, float64(rt))
			}
		}
	}()
	return func() (time.Duration, error) {
		<-done
		return time.Duration(median(trips)), err
	}
}

// hostSpeed turns a gauge reading into the factor timings are scaled by:
// above 1 on a host slower than the reference, where measured rates are
// multiplied and measured durations divided by it.
func hostSpeed(roundTrip time.Duration) float64 {
	return float64(roundTrip) / float64(refRoundTrip)
}
