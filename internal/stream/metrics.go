package stream

import (
	"time"

	"clio/internal/obs"
)

// Metrics holds the streaming-read instruments. A nil *Metrics disables
// instrumentation entirely (the default); every method is nil-safe.
type Metrics struct {
	subs          *obs.Gauge     // active subscriptions
	delivered     *obs.Counter   // entries delivered to subscribers
	wakeToDeliver *obs.Histogram // tail wake → entry handed to the receiver
	lag           *obs.Histogram // entry timestamp → delivery (wall lag)
	groupMembers  *obs.Gauge     // live consumer-group members (all groups)
	groupAcks     *obs.Counter   // offset acknowledgements appended
}

// RegisterMetrics creates the stream instruments on the registry:
//
//	clio_stream_subscriptions          gauge     active tail subscriptions
//	clio_stream_entries_delivered_total counter  entries delivered
//	clio_stream_wake_to_deliver_seconds histogram tail wake → delivery
//	clio_stream_delivery_lag_seconds   histogram  commit → delivery
//	clio_stream_group_members          gauge     live consumer-group members
//	clio_stream_group_acks_total       counter   group offset acks appended
func RegisterMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		subs:      reg.Gauge("clio_stream_subscriptions", "Active tail subscriptions."),
		delivered: reg.Counter("clio_stream_entries_delivered_total", "Entries delivered to subscribers."),
		wakeToDeliver: reg.Histogram("clio_stream_wake_to_deliver_seconds",
			"Latency from tail-publish wake to entry delivery.", obs.DefaultLatencyBuckets),
		lag: reg.Histogram("clio_stream_delivery_lag_seconds",
			"Latency from entry commit timestamp to delivery.", obs.DefaultLatencyBuckets),
		groupMembers: reg.Gauge("clio_stream_group_members", "Live consumer-group members."),
		groupAcks:    reg.Counter("clio_stream_group_acks_total", "Consumer-group offset acknowledgements appended."),
	}
}

// SubAdd adjusts the active-subscription gauge.
func (m *Metrics) SubAdd(n int64) {
	if m != nil {
		m.subs.Add(n)
	}
}

// Woke records the latency from a tail wake to the delivery it ended the
// park for.
func (m *Metrics) Woke(at time.Time) {
	if m != nil {
		m.wakeToDeliver.ObserveSince(at)
	}
}

// Delivered counts one entry handed to a receiver at now, with the
// timestamp it committed at. Entry timestamps are server Unix nanoseconds,
// so the difference is the time the entry spent between commit and
// delivery (meaningless, but harmless, under synthetic test clocks).
func (m *Metrics) Delivered(ts int64, now time.Time) {
	if m != nil {
		m.delivered.Inc()
		m.lag.Observe(time.Duration(now.UnixNano() - ts))
	}
}

// GroupMemberAdd adjusts the live-member gauge (called by stream/group).
func (m *Metrics) GroupMemberAdd(n int64) {
	if m != nil {
		m.groupMembers.Add(n)
	}
}

// GroupAckInc counts one appended offset acknowledgement.
func (m *Metrics) GroupAckInc() {
	if m != nil {
		m.groupAcks.Inc()
	}
}
