// Package obs is the unified observability substrate of the Clio
// reproduction: a lock-cheap metrics registry (atomic counters, gauges and
// fixed-bucket latency histograms), context-light span tracing with ring
// buffers of recent and slow operations, and an HTTP admin surface exposing
// both (plus pprof) from a running cliod.
//
// The paper's entire evaluation (§3) is built from operation counters —
// device reads, entrymap entries examined, blocks scanned at recovery — kept
// as plain fields of each subsystem's Stats struct under the lock that
// already guards them. The registry gives them one address space, and one
// rule: a counter is declared once, as a `metric`/`help` tag on its Stats
// field, and RegisterStruct turns the tagged struct into series that a
// scrape fills from ONE call of the owner's snapshot accessor — so /metrics,
// /statusz and the in-process Stats() all read the same copy, and no scrape
// shows two fields of one struct from different instants.
//
// # Time and counts
//
// Histograms are unit-agnostic int64-nanosecond recorders: the `*_seconds`
// families carry wall-clock time, and a family that records a count (core's
// force batch sizes) says so in its help. The paper's §3 cost units are
// plain counters; the virtual time the experiments report is priced from
// them outside the service (internal/vclock), never recorded here.
//
// # Cost discipline
//
// Recording is a few atomic adds; a nil *Histogram, *Counter or *Trace is a
// no-op receiver, so un-instrumented deployments (a Service whose
// RegisterMetrics was never called) pay only a pointer load per site.
// Instrumentation never performs device, cache or entrymap operations: the
// modeled workloads of cmd/experiments are byte-identical with or without a
// registry attached.
package obs

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one key="value" pair attached to a metric series.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// MetricType enumerates the exposition types.
type MetricType uint8

const (
	// TypeCounter is a monotonically increasing value.
	TypeCounter MetricType = iota
	// TypeGauge is a value that can go up and down.
	TypeGauge
	// TypeHistogram is a fixed-bucket distribution.
	TypeHistogram
)

// String returns the Prometheus exposition name of the type.
func (t MetricType) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeGauge:
		return "gauge"
	case TypeHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// DefaultLatencyBuckets spans 1 µs to ~4.2 s in powers of four — wide enough
// for syscall latencies and for a device seek of the paper's era (~150 ms).
var DefaultLatencyBuckets = func() []time.Duration {
	out := make([]time.Duration, 12)
	d := time.Microsecond
	for i := range out {
		out[i] = d
		d *= 4
	}
	return out
}()

// Histogram is a fixed-bucket latency distribution with atomic buckets. It
// records int64 nanoseconds, so it can carry durations or plain counts; the
// exposition renders seconds. A nil *Histogram ignores observations.
type Histogram struct {
	uppers []time.Duration // sorted inclusive upper bounds
	counts []atomic.Int64  // len(uppers)+1; last is +Inf
	sum    atomic.Int64    // nanoseconds
	n      atomic.Int64
}

// NewHistogram returns a detached histogram (not in any registry) with the
// given inclusive upper bounds; they are copied, sorted and deduplicated.
func NewHistogram(buckets []time.Duration) *Histogram {
	ups := append([]time.Duration(nil), buckets...)
	sort.Slice(ups, func(i, j int) bool { return ups[i] < ups[j] })
	dedup := ups[:0]
	for i, u := range ups {
		if i == 0 || u != ups[i-1] {
			dedup = append(dedup, u)
		}
	}
	h := &Histogram{uppers: dedup}
	h.counts = make([]atomic.Int64, len(dedup)+1)
	return h
}

// Observe records one duration. An observation equal to a bucket's upper
// bound counts into that bucket (Prometheus `le` semantics).
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.uppers) && d > h.uppers[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
	h.n.Add(1)
}

// ObserveSince records the wall-clock time elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start))
}

// snapshot returns per-bucket (non-cumulative) counts, the sum in ns and the
// total count, read without locking (individually atomic; a scrape racing an
// Observe may be off by one observation, never torn within a word).
func (h *Histogram) snapshot() (counts []int64, sum int64, n int64) {
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return counts, h.sum.Load(), h.n.Load()
}

// Counter is a monotonically increasing atomic counter. A nil *Counter
// ignores increments.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n must be non-negative for the exposition to stay honest).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically settable value. A nil *Gauge ignores updates.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// series is one labeled instance within a family.
type series struct {
	labels  []Label // sorted by key
	key     string  // canonical rendered labels
	counter *Counter
	gauge   *Gauge
	fn      func() int64 // value callback (counterFunc / gaugeFunc)
	src     *structSource
	slot    int // of src's snapshot (RegisterStruct)
	hist    *Histogram
}

// structSource is one RegisterStruct registration: take copies the owner's
// struct and flattens its tagged fields, in declaration order.
type structSource struct{ take func() []int64 }

// scrape holds the struct snapshots one WriteProm or Snapshot call has taken
// so far. Each source is taken once, when the scrape reaches the first of
// its series, and every later series of that struct reads the same copy.
type scrape map[*structSource][]int64

// collectorFn emits dynamically-labeled series into a scrape.
type collectorFn = func(add func(labels []Label, value int64))

// family is all series sharing one metric name.
type family struct {
	name    string
	help    string
	typ     MetricType
	buckets []time.Duration // histogram families

	mu     sync.Mutex
	series map[string]*series
	order  []string // insertion order of series keys
	// collectors emit dynamically-labeled series at scrape time, in
	// registration order. A slice (not a single func) so several components
	// may feed one family — e.g. every shard of a sharded store registering
	// the same fault-point family under its own shard label.
	collectors []collectorFn
}

// Registry holds named metric families. All methods are safe for concurrent
// use; registration is idempotent (re-registering a name+labels returns the
// existing metric) but re-registering a name under a different type panics —
// that is a programming error, not an operational condition.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) familyFor(name, help string, typ MetricType, buckets []time.Duration) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, buckets: buckets,
			series: make(map[string]*series)}
		r.families[name] = f
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q redefined as %v (was %v)", name, typ, f.typ))
	}
	return f
}

// labelKey renders sorted labels canonically; also used by the exposition.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteString(`"`)
	}
	return b.String()
}

func sortLabels(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func (f *family) seriesFor(labels []Label) *series {
	labels = sortLabels(labels)
	key := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.series[key]
	if s == nil {
		s = &series{labels: labels, key: key}
		switch f.typ {
		case TypeCounter:
			s.counter = &Counter{}
		case TypeGauge:
			s.gauge = &Gauge{}
		case TypeHistogram:
			s.hist = NewHistogram(f.buckets)
		}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// Counter registers (or fetches) a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.familyFor(name, help, TypeCounter, nil).seriesFor(labels).counter
}

// Gauge registers (or fetches) a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.familyFor(name, help, TypeGauge, nil).seriesFor(labels).gauge
}

// CounterFunc registers a counter series whose value is read from fn at
// scrape time — for a value that is one atomic load or computed on demand;
// the fields of a lock-guarded Stats struct go through RegisterStruct.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	r.familyFor(name, help, TypeCounter, nil).seriesFor(labels).fn = fn
}

// GaugeFunc registers a gauge series whose value is read from fn at scrape
// time.
func (r *Registry) GaugeFunc(name, help string, fn func() int64, labels ...Label) {
	r.familyFor(name, help, TypeGauge, nil).seriesFor(labels).fn = fn
}

// structField is one `metric`-tagged field of a snapshot struct.
type structField struct {
	index      int
	name, help string
}

// structFields lists t's tagged fields; a tag on anything but an integer or
// a bool is a programming error.
func structFields(t reflect.Type) []structField {
	var out []structField
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name := f.Tag.Get("metric")
		if name == "" {
			continue
		}
		if k := f.Type.Kind(); k != reflect.Int && k != reflect.Int64 && k != reflect.Bool {
			panic(fmt.Sprintf("obs: metric %q tags %v.%s, a %v", name, t, f.Name, f.Type))
		}
		out = append(out, structField{index: i, name: name, help: f.Tag.Get("help")})
	}
	return out
}

// RegisterStruct registers one series per tagged field of S — a field
// declares itself with `metric:"family_name" help:"..."`; a name ending in
// _total is a counter, any other a gauge; a bool reads as 0 or 1 — and fills
// them all from one call of fn per scrape. It is the bridge for the Stats structs
// whose counters are plain fields under their owner's lock: fn is the
// accessor that copies the struct under that lock, so a scrape reports the
// struct as it was at one instant and takes the lock once.
func RegisterStruct[S any](r *Registry, fn func() S, labels ...Label) {
	fields := structFields(reflect.TypeFor[S]())
	src := &structSource{take: func() []int64 {
		v := reflect.ValueOf(fn())
		out := make([]int64, len(fields))
		for i, f := range fields {
			if fv := v.Field(f.index); fv.Kind() != reflect.Bool {
				out[i] = fv.Int()
			} else if fv.Bool() {
				out[i] = 1
			}
		}
		return out
	}}
	for slot, f := range fields {
		typ := TypeGauge
		if strings.HasSuffix(f.name, "_total") {
			typ = TypeCounter
		}
		s := r.familyFor(f.name, f.help, typ, nil).seriesFor(labels)
		s.src, s.slot = src, slot
	}
}

// AddStruct adds every tagged integer field of src into dst: how the owner
// of several instances (the shards of a store, the volumes of a sequence)
// sums their snapshots without restating the field list.
func AddStruct[S any](dst *S, src S) {
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src)
	for _, f := range structFields(d.Type()) {
		if fv := d.Field(f.index); fv.CanInt() {
			fv.SetInt(fv.Int() + s.Field(f.index).Int())
		}
	}
}

// Histogram registers (or fetches) a histogram series with the given
// inclusive upper bounds (DefaultLatencyBuckets when nil).
func (r *Registry) Histogram(name, help string, buckets []time.Duration, labels ...Label) *Histogram {
	if buckets == nil {
		buckets = DefaultLatencyBuckets
	}
	return r.familyFor(name, help, TypeHistogram, buckets).seriesFor(labels).hist
}

// CollectorFunc registers a gauge-typed family whose series are produced
// dynamically at scrape time: fn is invoked with an `add` callback and emits
// zero or more labeled values. Used for families whose label space is not
// known up front (fault-injection points).
// Registering the same family again appends another collector; a scrape
// runs them all in registration order, so independent components (e.g. the
// shards of a sharded store) can each contribute their own labeled series.
func (r *Registry) CollectorFunc(name, help string, fn func(add func(labels []Label, value int64))) {
	f := r.familyFor(name, help, TypeGauge, nil)
	f.mu.Lock()
	f.collectors = append(f.collectors, fn)
	f.mu.Unlock()
}

// contents copies the family's series, in registration order, and its
// collectors, so a scrape reads values without holding the family lock.
func (f *family) contents() ([]*series, []collectorFn) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ser := make([]*series, 0, len(f.order))
	for _, k := range f.order {
		ser = append(ser, f.series[k])
	}
	return ser, append([]collectorFn(nil), f.collectors...)
}

// sortedFamilies snapshots the family list sorted by name.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// value resolves a counter/gauge series' current value.
func (sc scrape) value(s *series) int64 {
	if s.src != nil {
		snap, ok := sc[s.src]
		if !ok {
			snap = s.src.take()
			sc[s.src] = snap
		}
		return snap[s.slot]
	}
	if s.fn != nil {
		return s.fn()
	}
	if s.counter != nil {
		return s.counter.Value()
	}
	if s.gauge != nil {
		return s.gauge.Value()
	}
	return 0
}
