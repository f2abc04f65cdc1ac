package stream

import "clio/internal/obs"

// Metrics holds the streaming-read instruments. All fields are nil-safe;
// a nil *Metrics disables instrumentation entirely (the default).
type Metrics struct {
	subs          *obs.Gauge     // active subscriptions
	delivered     *obs.Counter   // entries delivered to subscriber buffers
	catchups      *obs.Counter   // live → catch-up transitions (slow consumers)
	buffered      *obs.Gauge     // delivered-but-undrained entries (delivery lag in entries)
	wakeToDeliver *obs.Histogram // tail wake → entry in the subscriber buffer
	lag           *obs.Histogram // entry timestamp → delivery (vclock/wall lag)
	groupMembers  *obs.Gauge     // live consumer-group members (all groups)
	groupAcks     *obs.Counter   // offset acknowledgements appended
}

// RegisterMetrics creates the stream instruments on the registry:
//
//	clio_stream_subscriptions          gauge     active tail subscriptions
//	clio_stream_entries_delivered_total counter  entries delivered
//	clio_stream_catchups_total         counter   slow-consumer catch-up transitions
//	clio_stream_buffered_entries       gauge     delivery lag in entries
//	clio_stream_wake_to_deliver_seconds histogram tail wake → delivery
//	clio_stream_delivery_lag_seconds   histogram  commit → delivery
//	clio_stream_group_members          gauge     live consumer-group members
//	clio_stream_group_acks_total       counter   group offset acks appended
func RegisterMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		subs:      reg.Gauge("clio_stream_subscriptions", "Active tail subscriptions."),
		delivered: reg.Counter("clio_stream_entries_delivered_total", "Entries delivered to subscriber buffers."),
		catchups:  reg.Counter("clio_stream_catchups_total", "Slow-consumer transitions into catch-up mode."),
		buffered:  reg.Gauge("clio_stream_buffered_entries", "Delivered-but-undrained entries (delivery lag in entries)."),
		wakeToDeliver: reg.Histogram("clio_stream_wake_to_deliver_seconds",
			"Latency from tail-publish wake to entry delivery.", obs.DefaultLatencyBuckets),
		lag: reg.Histogram("clio_stream_delivery_lag_seconds",
			"Latency from entry commit timestamp to delivery.", obs.DefaultLatencyBuckets),
		groupMembers: reg.Gauge("clio_stream_group_members", "Live consumer-group members."),
		groupAcks:    reg.Counter("clio_stream_group_acks_total", "Consumer-group offset acknowledgements appended."),
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
