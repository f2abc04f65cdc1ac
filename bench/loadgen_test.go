package main

import (
	"testing"
	"time"
)

// fakeClock is a clock the test moves by hand; sleeping advances it.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time        { return c.t }
func (c *fakeClock) sleep(d time.Duration) { c.t = c.t.Add(d) }

// A send that stalls for five intervals must not shift the schedule: the
// following ops are still due at start+i·interval, are sent at once because
// they are late, and carry the stall in their latencies.
func TestPacerTimesFromDueInstant(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{t: start}
	p := &pacer{start: start, interval: time.Millisecond, now: clk.now, sleep: clk.sleep}
	calls := 0
	samples, late, err := pacedLoop(p, start, loopPlan{win: 8 * time.Millisecond}, func() error {
		if calls == 1 {
			clk.t = clk.t.Add(5 * time.Millisecond) // op 1 stalls
		} else {
			clk.t = clk.t.Add(100 * time.Microsecond)
		}
		calls++
		return nil
	})
	if err != nil || len(samples) != 8 {
		t.Fatalf("got %d samples, err %v; want 8 (one per due instant inside 8 ms)", len(samples), err)
	}
	us := time.Microsecond
	wantLat := []time.Duration{100 * us, 5000 * us, 4100 * us, 3200 * us, 2300 * us, 1400 * us, 500 * us, 100 * us}
	wantLate := []time.Duration{0, 0, 4000 * us, 3100 * us, 2200 * us, 1300 * us, 400 * us, 0}
	for i := range samples {
		if samples[i].lat != wantLat[i] {
			t.Errorf("op %d latency from due instant = %v, want %v", i, samples[i].lat, wantLat[i])
		}
		if late[i] != wantLate[i] {
			t.Errorf("op %d sent %v after it was due, want %v", i, late[i], wantLate[i])
		}
	}
}

// The closed loops stand still in every period's calibration slot, the
// warm-up period's included, and stop when the plan's time is up.
func TestClosedLoopKeepsOutOfCalibrationSlots(t *testing.T) {
	ms := time.Millisecond
	p := loopPlan{win: 40 * ms, calib: 15 * ms, windows: 2}
	epoch := time.Now()
	samples, err := closedLoop(epoch, p, func() error {
		time.Sleep(ms)
		return nil
	})
	if err != nil || len(samples) == 0 {
		t.Fatalf("closedLoop = %d samples, %v", len(samples), err)
	}
	for _, s := range samples {
		if began := s.done - s.lat; p.slotRest(began) > 0 {
			t.Fatalf("an op began %v into the loop, inside a calibration slot", began)
		}
	}
	if el := time.Since(epoch); el < p.total() || el > p.total()+20*ms {
		t.Errorf("loop ran %v, want the plan's %v", el, p.total())
	}
}

// The paced writer leaves out the due instants inside a calibration slot —
// the daemon is idle while the gauge is read — and does not catch up on
// them afterwards.
func TestPacedLoopSkipsCalibrationSlots(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{t: start}
	ms := time.Millisecond
	p := &pacer{start: start, interval: ms, now: clk.now, sleep: clk.sleep}
	plan := loopPlan{win: 10 * ms, calib: 4 * ms, windows: 1}
	samples, _, err := pacedLoop(p, start, plan, func() error {
		clk.t = clk.t.Add(100 * time.Microsecond)
		return nil
	})
	if err != nil || len(samples) != 12 {
		t.Fatalf("got %d samples, err %v; want 12: 6 outside the slot in each of 2 periods", len(samples), err)
	}
	for _, s := range samples {
		if due := s.done - s.lat; plan.slotRest(due) > 0 {
			t.Errorf("an op was due %v into the loop, inside a calibration slot", due)
		}
	}
}

// The gauge's echo loops answer, a burst lasts what it is asked to, and the
// factor is the reading over the reference.
func TestSpeedGauge(t *testing.T) {
	g, err := newSpeedGauge()
	if err != nil {
		t.Fatal(err)
	}
	defer g.close()
	t0 := time.Now()
	rt, err := g.burst(30 * time.Millisecond)
	if err != nil || rt <= 0 || rt > 10*time.Millisecond {
		t.Fatalf("burst = %v, %v; want a loopback round trip", rt, err)
	}
	if el := time.Since(t0); el < 30*time.Millisecond || el > 200*time.Millisecond {
		t.Errorf("a 30 ms burst took %v", el)
	}
	if got := hostSpeed(32 * time.Microsecond); !near(got, 2) {
		t.Errorf("hostSpeed = %v, want 32 us / reference 16 us = 2", got)
	}
}
