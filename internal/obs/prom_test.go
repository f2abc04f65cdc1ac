package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestWritePromGolden pins the exact exposition bytes: families sorted by
// name, series in registration order, cumulative le-buckets with seconds
// bounds, +Inf last.
func TestWritePromGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("t_requests_total", "Requests served.", L("op", "append")).Add(3)
	reg.Counter("t_requests_total", "Requests served.", L("op", "read")).Inc()
	reg.Gauge("t_blocks", "Blocks cached.").Set(7)
	h := reg.Histogram("t_lat_seconds", "Latency.",
		[]time.Duration{time.Millisecond, 10 * time.Millisecond})
	h.Observe(time.Millisecond)
	h.Observe(2 * time.Millisecond)
	h.Observe(time.Second)
	reg.CounterFunc("t_dynamic_total", "Dyn.", func() int64 { return 42 })

	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP t_blocks Blocks cached.
# TYPE t_blocks gauge
t_blocks 7
# HELP t_dynamic_total Dyn.
# TYPE t_dynamic_total counter
t_dynamic_total 42
# HELP t_lat_seconds Latency.
# TYPE t_lat_seconds histogram
t_lat_seconds_bucket{le="0.001"} 1
t_lat_seconds_bucket{le="0.01"} 2
t_lat_seconds_bucket{le="+Inf"} 3
t_lat_seconds_sum 1.003
t_lat_seconds_count 3
# HELP t_requests_total Requests served.
# TYPE t_requests_total counter
t_requests_total{op="append"} 3
t_requests_total{op="read"} 1
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestPromEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("esc_total", "Help with \\ and\nnewline.", L("path", `a"b\c`+"\n")).Inc()
	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if !strings.Contains(got, `# HELP esc_total Help with \\ and\nnewline.`) {
		t.Errorf("HELP not escaped:\n%s", got)
	}
	if !strings.Contains(got, `esc_total{path="a\"b\\c\n"} 1`) {
		t.Errorf("label not escaped:\n%s", got)
	}
}

func TestSnapshotHistogramCumulative(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("s_seconds", "S.", []time.Duration{time.Millisecond})
	h.Observe(0)
	h.Observe(time.Hour)
	snap := reg.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d series", len(snap))
	}
	m := snap[0]
	if m.Type != "histogram" || m.Count != 2 {
		t.Fatalf("series = %+v", m)
	}
	if len(m.Buckets) != 2 || m.Buckets[0].Count != 1 || m.Buckets[0].LE != 0.001 ||
		!m.Buckets[1].Inf || m.Buckets[1].Count != 2 {
		t.Errorf("buckets = %+v", m.Buckets)
	}
	// The snapshot must round-trip through JSON (WriteJSON's contract).
	var back []SnapshotMetric
	var b strings.Builder
	if err := reg.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(b.String()), &back); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v", err)
	}
	if len(back) != 1 || back[0].Name != "s_seconds" || back[0].Count != 2 {
		t.Errorf("round-trip = %+v", back)
	}
}

// TestProcessMetricsFamilies pins the runtime families' names, types and
// help — load generators parse clio_go_gc_cycles_total — and checks a
// scrape reports a live process.
func TestProcessMetricsFamilies(t *testing.T) {
	reg := NewRegistry()
	RegisterProcessMetrics(reg)
	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP clio_go_gc_cycles_total Completed GC cycles.\n# TYPE clio_go_gc_cycles_total counter\n",
		"# HELP clio_go_goroutines Number of live goroutines.\n# TYPE clio_go_goroutines gauge\n",
		"# HELP clio_go_heap_alloc_bytes Bytes of allocated heap objects.\n# TYPE clio_go_heap_alloc_bytes gauge\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks %q:\n%s", want, out)
		}
	}
	for _, m := range reg.Snapshot() {
		if m.Name != "clio_go_gc_cycles_total" && m.Value <= 0 {
			t.Errorf("%s = %d in a running process", m.Name, m.Value)
		}
	}
}
