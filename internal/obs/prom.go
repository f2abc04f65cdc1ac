package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// escapeLabel escapes a label value per the Prometheus text exposition
// format: backslash, double-quote and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, `\"`+"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string (backslash and newline only).
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// seconds renders a duration as a compact float number of seconds.
func seconds(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds(), 'g', -1, 64)
}

func writeSample(w io.Writer, name, labels string, value string) error {
	var err error
	if labels == "" {
		_, err = fmt.Fprintf(w, "%s %s\n", name, value)
	} else {
		_, err = fmt.Fprintf(w, "%s{%s} %s\n", name, labels, value)
	}
	return err
}

// joinLabels appends extra rendered labels (e.g. the `le` bound) to a
// canonical label key.
func joinLabels(key, extra string) string {
	if key == "" {
		return extra
	}
	if extra == "" {
		return key
	}
	return key + "," + extra
}

// WriteProm writes every registered family in the Prometheus text exposition
// format (version 0.0.4), families sorted by name, series in registration
// order. Histograms emit cumulative `_bucket{le=...}` samples plus `_sum`
// and `_count`, with bounds and sums rendered in seconds.
func (r *Registry) WriteProm(w io.Writer) error {
	sc := scrape{}
	for _, f := range r.sortedFamilies() {
		ser, collectors := f.contents()

		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, s := range ser {
			if f.typ == TypeHistogram {
				counts, sum, n := s.hist.snapshot()
				var cum int64
				for i, c := range counts {
					cum += c
					bound := "+Inf"
					if i < len(s.hist.uppers) {
						bound = seconds(s.hist.uppers[i])
					}
					lbl := joinLabels(s.key, `le="`+bound+`"`)
					if err := writeSample(w, f.name+"_bucket", lbl, strconv.FormatInt(cum, 10)); err != nil {
						return err
					}
				}
				if err := writeSample(w, f.name+"_sum", s.key, seconds(time.Duration(sum))); err != nil {
					return err
				}
				if err := writeSample(w, f.name+"_count", s.key, strconv.FormatInt(n, 10)); err != nil {
					return err
				}
				continue
			}
			if err := writeSample(w, f.name, s.key, strconv.FormatInt(sc.value(s), 10)); err != nil {
				return err
			}
		}
		for _, collect := range collectors {
			var cerr error
			collect(func(labels []Label, value int64) {
				if cerr != nil {
					return
				}
				cerr = writeSample(w, f.name, labelKey(sortLabels(labels)), strconv.FormatInt(value, 10))
			})
			if cerr != nil {
				return cerr
			}
		}
	}
	return nil
}

// SnapshotMetric is one series in a JSON registry snapshot.
type SnapshotMetric struct {
	Name   string            `json:"name"`
	Type   string            `json:"type"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  int64             `json:"value,omitempty"`
	// Histogram-only fields.
	Buckets []SnapshotBucket `json:"buckets,omitempty"`
	SumSec  float64          `json:"sum_seconds,omitempty"`
	Count   int64            `json:"count,omitempty"`
}

// SnapshotBucket is one cumulative histogram bucket in a JSON snapshot.
type SnapshotBucket struct {
	LE    float64 `json:"le"` // upper bound in seconds; +Inf encoded as 0 with Inf=true
	Inf   bool    `json:"inf,omitempty"`
	Count int64   `json:"count"`
}

func labelMap(labels []Label) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	m := make(map[string]string, len(labels))
	for _, l := range labels {
		m[l.Key] = l.Value
	}
	return m
}

// Snapshot returns every registered series as a flat list, for JSON dumps
// (cmd/experiments -metrics-out) and programmatic inspection.
func (r *Registry) Snapshot() []SnapshotMetric {
	var out []SnapshotMetric
	sc := scrape{}
	for _, f := range r.sortedFamilies() {
		ser, collectors := f.contents()

		for _, s := range ser {
			m := SnapshotMetric{Name: f.name, Type: f.typ.String(), Labels: labelMap(s.labels)}
			if f.typ == TypeHistogram {
				counts, sum, n := s.hist.snapshot()
				var cum int64
				for i, c := range counts {
					cum += c
					b := SnapshotBucket{Count: cum}
					if i < len(s.hist.uppers) {
						b.LE = s.hist.uppers[i].Seconds()
					} else {
						b.Inf = true
					}
					m.Buckets = append(m.Buckets, b)
				}
				m.SumSec = time.Duration(sum).Seconds()
				m.Count = n
			} else {
				m.Value = sc.value(s)
			}
			out = append(out, m)
		}
		for _, collect := range collectors {
			collect(func(labels []Label, value int64) {
				out = append(out, SnapshotMetric{
					Name: f.name, Type: f.typ.String(),
					Labels: labelMap(sortLabels(labels)), Value: value,
				})
			})
		}
	}
	return out
}

// WriteJSON writes the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
