package probe

import "arest/internal/obs"

// Metrics is the prober's bound instrument set ("probe" stage). A nil
// *Metrics is valid and records nothing, so Tracer code instruments
// unconditionally. All counters are event counts that depend only on what
// is probed, never on scheduling — they sit inside the determinism
// contract. The RTT histogram is deterministic too under the simulator
// (synthetic hop-count RTTs); against a real raw-socket Conn it is not.
type Metrics struct {
	sentUDP     *obs.Counter
	sentICMP    *obs.Counter
	replies     *obs.Counter
	retries     *obs.Counter
	gaps        *obs.Counter
	decodeErr   *obs.Counter
	exchangeErr *obs.Counter

	revealTriggers *obs.Counter
	revealSuccess  *obs.Counter
	revealedHops   *obs.Counter
	revealErr      *obs.Counter

	haltReached *obs.Counter
	haltGaps    *obs.Counter
	haltMaxTTL  *obs.Counter
	haltLoop    *obs.Counter
	haltError   *obs.Counter

	pings       *obs.Counter
	pingReplies *obs.Counter
	ipidSamples *obs.Counter
	ipidReplies *obs.Counter

	rttUs *obs.Histogram
}

// NewMetrics binds the probe instruments to reg; nil in, nil out.
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		sentUDP:        reg.Counter("probe", "sent.udp"),
		sentICMP:       reg.Counter("probe", "sent.icmp"),
		replies:        reg.Counter("probe", "replies"),
		retries:        reg.Counter("probe", "retries"),
		gaps:           reg.Counter("probe", "gaps"),
		decodeErr:      reg.Counter("probe", "decode_error"),
		exchangeErr:    reg.Counter("probe", "exchange_errors"),
		revealTriggers: reg.Counter("probe", "reveal.triggers"),
		revealSuccess:  reg.Counter("probe", "reveal.successes"),
		revealedHops:   reg.Counter("probe", "reveal.hops"),
		revealErr:      reg.Counter("probe", "reveal.errors"),
		haltReached:    reg.Counter("probe", "halt.reached"),
		haltGaps:       reg.Counter("probe", "halt.gaps"),
		haltMaxTTL:     reg.Counter("probe", "halt.max_ttl"),
		haltLoop:       reg.Counter("probe", "halt.loop"),
		haltError:      reg.Counter("probe", "halt.error"),
		pings:          reg.Counter("probe", "pings"),
		pingReplies:    reg.Counter("probe", "ping_replies"),
		ipidSamples:    reg.Counter("probe", "ipid_samples"),
		ipidReplies:    reg.Counter("probe", "ipid_replies"),
		rttUs:          reg.Histogram("probe", "rtt_us"),
	}
}

func (m *Metrics) countSent(method Method) {
	if m == nil {
		return
	}
	if method == MethodICMP {
		m.sentICMP.Inc()
	} else {
		m.sentUDP.Inc()
	}
}

func (m *Metrics) countReply(rttMs float64) {
	if m == nil {
		return
	}
	m.replies.Inc()
	m.rttUs.Observe(uint64(rttMs * 1000))
}

func (m *Metrics) countRetry() {
	if m != nil {
		m.retries.Inc()
	}
}

func (m *Metrics) countGap() {
	if m != nil {
		m.gaps.Inc()
	}
}

func (m *Metrics) countDecodeError() {
	if m != nil {
		m.decodeErr.Inc()
	}
}

func (m *Metrics) countExchangeError() {
	if m != nil {
		m.exchangeErr.Inc()
	}
}

func (m *Metrics) countRevealError() {
	if m != nil {
		m.revealErr.Inc()
	}
}

func (m *Metrics) countHalt(r HaltReason) {
	if m == nil {
		return
	}
	switch r {
	case HaltReached:
		m.haltReached.Inc()
	case HaltGaps:
		m.haltGaps.Inc()
	case HaltMaxTTL:
		m.haltMaxTTL.Inc()
	case HaltLoop:
		m.haltLoop.Inc()
	case HaltError:
		m.haltError.Inc()
	}
}

func (m *Metrics) countReveal(triggered bool, revealed int) {
	if m == nil {
		return
	}
	if triggered {
		m.revealTriggers.Inc()
	}
	if revealed > 0 {
		m.revealSuccess.Inc()
		m.revealedHops.Add(uint64(revealed))
	}
}

func (m *Metrics) countPing() {
	if m != nil {
		m.pings.Inc()
	}
}

func (m *Metrics) countPingReply() {
	if m != nil {
		m.pingReplies.Inc()
	}
}

func (m *Metrics) countIPIDSample() {
	if m != nil {
		m.ipidSamples.Inc()
	}
}

func (m *Metrics) countIPIDReply() {
	if m != nil {
		m.ipidReplies.Inc()
	}
}
