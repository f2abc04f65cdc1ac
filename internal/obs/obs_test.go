package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	// Unsorted with a duplicate: NewHistogram must sort and dedup.
	h := NewHistogram([]time.Duration{10 * time.Millisecond, time.Millisecond, 10 * time.Millisecond})
	if len(h.uppers) != 2 || h.uppers[0] != time.Millisecond || h.uppers[1] != 10*time.Millisecond {
		t.Fatalf("uppers = %v", h.uppers)
	}

	h.Observe(0)                       // below first bound
	h.Observe(time.Millisecond)        // exactly on a bound: le-inclusive
	h.Observe(time.Millisecond + 1)    // just over
	h.Observe(10 * time.Millisecond)   // exactly on the last finite bound
	h.Observe(10*time.Millisecond + 1) // overflow

	counts, sum, n := h.snapshot()
	if want := []int64{2, 2, 1}; len(counts) != 3 ||
		counts[0] != want[0] || counts[1] != want[1] || counts[2] != want[2] {
		t.Errorf("per-bucket counts = %v, want %v", counts, want)
	}
	if n != 5 || h.n.Load() != 5 {
		t.Errorf("count = %d/%d, want 5", n, h.n.Load())
	}
	wantSum := int64(0 + time.Millisecond + time.Millisecond + 1 + 10*time.Millisecond + 10*time.Millisecond + 1)
	if sum != wantSum {
		t.Errorf("sum = %d, want %d", sum, wantSum)
	}
}

func TestDefaultLatencyBuckets(t *testing.T) {
	if len(DefaultLatencyBuckets) != 12 {
		t.Fatalf("len = %d", len(DefaultLatencyBuckets))
	}
	if DefaultLatencyBuckets[0] != time.Microsecond {
		t.Errorf("first bucket = %v", DefaultLatencyBuckets[0])
	}
	for i := 1; i < len(DefaultLatencyBuckets); i++ {
		if DefaultLatencyBuckets[i] != 4*DefaultLatencyBuckets[i-1] {
			t.Errorf("bucket %d = %v, want 4x previous", i, DefaultLatencyBuckets[i])
		}
	}
}

func TestNilReceiversNoOp(t *testing.T) {
	var h *Histogram
	h.Observe(time.Second)
	h.ObserveSince(time.Now())
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter reported a value")
	}
	var g *Gauge
	g.Set(3)
	g.Add(-1)
	if g.Value() != 0 {
		t.Error("nil gauge reported a value")
	}
	var tr *Trace
	tr.Span("x")()
	tr.Add(Span{Name: "y"})
	if tr.Spans() != nil {
		t.Error("nil trace reported spans")
	}
	var tc *Tracer
	if tc.Start(1, "op") != nil {
		t.Error("nil tracer started a trace")
	}
	tc.Finish(nil)
	if tc.Recent() != nil || tc.Slow() != nil {
		t.Error("nil tracer reported traces")
	}
}

func TestRegistryIdempotentAndTyped(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "X.", L("op", "a"))
	b := reg.Counter("x_total", "X.", L("op", "a"))
	if a != b {
		t.Error("re-registering the same series returned a new counter")
	}
	if reg.Counter("x_total", "X.", L("op", "b")) == a {
		t.Error("different labels shared a series")
	}
	defer func() {
		if recover() == nil {
			t.Error("redefining x_total as a gauge did not panic")
		}
	}()
	reg.Gauge("x_total", "X.")
}

func TestConcurrentRecording(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("conc_total", "C.")
	g := reg.Gauge("conc_gauge", "G.")
	h := reg.Histogram("conc_seconds", "H.", nil)

	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(time.Duration(i) * time.Microsecond)
				// Concurrent re-registration must return the same series.
				if reg.Counter("conc_total", "C.") != c {
					panic("series identity lost under concurrency")
				}
			}
		}()
	}
	// Scrape while recording: must not race or tear.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			reg.Snapshot()
		}
	}()
	wg.Wait()
	<-done

	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	if g.Value() != workers*per {
		t.Errorf("gauge = %d, want %d", g.Value(), workers*per)
	}
	if h.n.Load() != workers*per {
		t.Errorf("histogram count = %d, want %d", h.n.Load(), workers*per)
	}
}

func TestCollectorFunc(t *testing.T) {
	reg := NewRegistry()
	reg.CollectorFunc("dyn_total", "Dyn.", func(add func(labels []Label, value int64)) {
		add([]Label{L("point", "seal")}, 3)
		add([]Label{L("point", "read")}, 1)
	})
	snap := reg.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d series, want 2", len(snap))
	}
	if snap[0].Labels["point"] != "seal" || snap[0].Value != 3 {
		t.Errorf("series 0 = %+v", snap[0])
	}
	if snap[1].Labels["point"] != "read" || snap[1].Value != 1 {
		t.Errorf("series 1 = %+v", snap[1])
	}
}

// TestRegisterStruct: tagged fields become series named and typed by their
// tags, a scrape calls the accessor once however many series it feeds, and
// AddStruct sums the same fields.
func TestRegisterStruct(t *testing.T) {
	type stats struct {
		Hits    int64 `metric:"s_hits_total" help:"Hits."`
		Depth   int   `metric:"s_depth" help:"Depth."`
		Clean   bool  `metric:"s_clean" help:"Clean."`
		Private int64 // untagged: no series, not summed
	}
	reg := NewRegistry()
	calls := 0
	RegisterStruct(reg, func() stats {
		calls++
		return stats{Hits: int64(10 * calls), Depth: calls, Clean: true, Private: 99}
	}, L("shard", "0"))

	snap := reg.Snapshot()
	if calls != 1 {
		t.Errorf("one scrape called the accessor %d times", calls)
	}
	want := []SnapshotMetric{
		{Name: "s_clean", Type: "gauge", Value: 1},
		{Name: "s_depth", Type: "gauge", Value: 1},
		{Name: "s_hits_total", Type: "counter", Value: 10},
	}
	if len(snap) != len(want) {
		t.Fatalf("snapshot = %+v", snap)
	}
	for i, m := range snap {
		if m.Name != want[i].Name || m.Type != want[i].Type || m.Value != want[i].Value || m.Labels["shard"] != "0" {
			t.Errorf("series %d = %+v, want %+v", i, m, want[i])
		}
	}
	var prom strings.Builder
	if err := reg.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	if calls != 2 || !strings.Contains(prom.String(), "# HELP s_hits_total Hits.\n# TYPE s_hits_total counter\ns_hits_total{shard=\"0\"} 20\n") {
		t.Errorf("second scrape: %d calls\n%s", calls, prom.String())
	}

	sum := stats{Hits: 1, Depth: 2, Private: 5}
	AddStruct(&sum, stats{Hits: 10, Depth: 20, Clean: true, Private: 50})
	if sum != (stats{Hits: 11, Depth: 22, Private: 5}) {
		t.Errorf("AddStruct = %+v", sum)
	}
}
