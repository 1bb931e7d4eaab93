// Reflection-free codec for TypeTrace payloads, the record that carries
// nearly all of an archive's bytes. The payload format does not change:
// appendTraceRecord emits exactly the bytes json.Marshal(TraceRecord)
// produces, and traceDecoder parses that canonical layout in one pass.
// encoding/json stays the reference both halves are fuzzed against, and
// the only path for anything outside the canonical layout: a payload the
// scanner does not recognize byte for byte goes through json.Unmarshal, so
// the accepted inputs, the decoded values and the error text are those of
// encoding/json on every input.
package archive

//arest:hotpath file

import (
	"encoding/json"
	"errors"
	"math"
	"net/netip"
	"strconv"

	"arest/internal/mpls"
	"arest/internal/probe"
)

// plainByte reports whether c stands for itself inside a JSON string as
// encoding/json writes it: printable ASCII other than the quote, the
// backslash and the three characters json.Marshal escapes for HTML.
func plainByte(c byte) bool {
	return c >= 0x20 && c < 0x80 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

func plainString(s string) bool {
	for i := 0; i < len(s); i++ {
		if !plainByte(s[i]) {
			return false
		}
	}
	return true
}

// appendTraceRecord appends json.Marshal(rec)'s bytes to dst. It fails
// exactly where json.Marshal does (a NaN or infinite RTT), with
// json.Marshal's own error.
func appendTraceRecord(dst []byte, rec *TraceRecord) ([]byte, error) {
	start := len(dst)
	dst = append(dst, `{"vp_index":`...)
	dst = strconv.AppendInt(dst, int64(rec.VPIndex), 10)
	dst = append(dst, `,"trace":`...)
	t := rec.Trace
	if t == nil {
		return append(dst, "null}"...), nil
	}
	dst = append(dst, `{"vp":`...)
	dst = appendAddr(dst, t.VP)
	dst = append(dst, `,"dst":`...)
	dst = appendAddr(dst, t.Dst)
	dst = append(dst, `,"flow_id":`...)
	dst = strconv.AppendUint(dst, uint64(t.FlowID), 10)
	dst = append(dst, `,"hops":`...)
	if t.Hops == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range t.Hops {
			if i > 0 {
				dst = append(dst, ',')
			}
			var ok bool
			if dst, ok = appendHop(dst, &t.Hops[i]); !ok {
				return dst[:start], marshalError(rec)
			}
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"halt":`...)
	dst = strconv.AppendInt(dst, int64(t.Halt), 10)
	if t.Err != "" {
		dst = append(dst, `,"err":`...)
		dst = appendString(dst, t.Err)
	}
	if len(t.RevealErrs) > 0 {
		dst = append(dst, `,"reveal_errs":[`...)
		for i, s := range t.RevealErrs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, s)
		}
		dst = append(dst, ']')
	}
	return append(dst, "}}"...), nil
}

// appendHop appends one probe.Hop object; ok is false for an RTT that
// encoding/json refuses to encode.
func appendHop(dst []byte, h *probe.Hop) ([]byte, bool) {
	dst = append(dst, `{"ttl":`...)
	dst = strconv.AppendInt(dst, int64(h.TTL), 10)
	dst = append(dst, `,"addr":`...)
	dst = appendAddr(dst, h.Addr)
	dst = append(dst, `,"rtt_ms":`...)
	var ok bool
	if dst, ok = appendFloat(dst, h.RTT); !ok {
		return dst, false
	}
	dst = append(dst, `,"icmp_type":`...)
	dst = strconv.AppendUint(dst, uint64(h.ICMPType), 10)
	dst = append(dst, `,"icmp_code":`...)
	dst = strconv.AppendUint(dst, uint64(h.ICMPCode), 10)
	dst = append(dst, `,"reply_ttl":`...)
	dst = strconv.AppendUint(dst, uint64(h.ReplyTTL), 10)
	dst = append(dst, `,"qttl":`...)
	dst = strconv.AppendUint(dst, uint64(h.QTTL), 10)
	if len(h.Stack) > 0 {
		dst = append(dst, `,"stack":[`...)
		for i, e := range h.Stack {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"Label":`...)
			dst = strconv.AppendUint(dst, uint64(e.Label), 10)
			dst = append(dst, `,"TC":`...)
			dst = strconv.AppendUint(dst, uint64(e.TC), 10)
			dst = append(dst, `,"S":`...)
			dst = strconv.AppendBool(dst, e.S)
			dst = append(dst, `,"TTL":`...)
			dst = strconv.AppendUint(dst, uint64(e.TTL), 10)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if h.Revealed {
		dst = append(dst, `,"revealed":true`...)
	}
	if h.DecodeError {
		dst = append(dst, `,"decode_error":true`...)
	}
	return append(dst, '}'), true
}

// appendFloat formats f as encoding/json does for a float64: shortest
// 'f' form, 'e' form outside [1e-6, 1e21) with a one-digit negative
// exponent written without its leading zero. NaN and ±Inf are refused.
func appendFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 -> e-9
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, true
}

// appendAddr appends a's MarshalText form as a JSON string ("" for the
// zero address). Only an IPv6 zone can hold bytes that need escaping.
func appendAddr(dst []byte, a netip.Addr) []byte {
	dst = append(dst, '"')
	start := len(dst)
	dst = a.AppendTo(dst)
	for _, c := range dst[start:] {
		if !plainByte(c) {
			return appendEscaped(dst[:start-1], string(dst[start:]))
		}
	}
	return append(dst, '"')
}

func appendString(dst []byte, s string) []byte {
	if !plainString(s) {
		return appendEscaped(dst, s)
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendEscaped appends s as encoding/json quotes it, escapes, HTML-safe
// forms and U+FFFD replacement of invalid UTF-8 included.
//
//arest:coldpath only error texts and address zones reach it; encoding/json's escaper keeps them byte-identical
func appendEscaped(dst []byte, s string) []byte {
	q, err := json.Marshal(s)
	if err != nil {
		panic(err) // encoding a string cannot fail
	}
	return append(dst, q...)
}

// marshalError returns the error json.Marshal reports for a record the
// codec refused.
//
//arest:coldpath runs once per unencodable record
func marshalError(rec *TraceRecord) error {
	if _, err := json.Marshal(rec); err != nil {
		return err
	}
	return errors.New("archive: trace codec refused a record encoding/json accepts")
}

// traceDecoder decodes TypeTrace payloads. Its scratch slices are reused
// from record to record; each decoded trace gets freshly allocated,
// exactly sized Hops and label stacks, so nothing a Visitor receives
// aliases the decoder.
type traceDecoder struct {
	hops   []probe.Hop
	lses   []mpls.LSE
	stacks []stackSpan
}

// stackSpan locates one hop's label stack in traceDecoder.lses.
type stackSpan struct{ hop, lo, hi int }

// decodeTraceRecord sets rec to what json.Unmarshal decodes from body
// into a zero TraceRecord: through the canonical scanner when body is in
// json.Marshal's layout, through json.Unmarshal itself otherwise. Errors
// are json.Unmarshal's, wrapped in ErrCorrupt.
func (d *traceDecoder) decodeTraceRecord(body []byte, rec *TraceRecord) error {
	if d.decodeCanonical(body, rec) {
		return nil
	}
	*rec = TraceRecord{}
	return decode(body, rec)
}

// decodeCanonical parses the exact layout appendTraceRecord emits: fixed
// key order and omitempty rules, no whitespace, no escapes, ASCII only,
// in-range numbers. On any deviation it reports false and leaves rec as
// it was.
func (d *traceDecoder) decodeCanonical(body []byte, rec *TraceRecord) bool {
	s := canonScanner{b: body}
	if !s.lit(`{"vp_index":`) {
		return false
	}
	vp, ok := s.integer()
	if !ok || !s.lit(`,"trace":`) {
		return false
	}
	var t *probe.Trace
	if !s.lit("null") {
		t = new(probe.Trace)
		if !d.trace(&s, t) {
			return false
		}
	}
	if !s.lit("}") || !s.end() {
		return false
	}
	*rec = TraceRecord{VPIndex: vp, Trace: t}
	return true
}

func (d *traceDecoder) trace(s *canonScanner, t *probe.Trace) bool {
	var ok bool
	if !s.lit(`{"vp":`) {
		return false
	}
	if t.VP, ok = s.addr(); !ok || !s.lit(`,"dst":`) {
		return false
	}
	if t.Dst, ok = s.addr(); !ok || !s.lit(`,"flow_id":`) {
		return false
	}
	flow, ok := s.digits(math.MaxUint16)
	if !ok || !s.lit(`,"hops":`) {
		return false
	}
	t.FlowID = uint16(flow)
	if !s.lit("null") {
		if t.Hops, ok = d.hopList(s); !ok {
			return false
		}
	}
	if !s.lit(`,"halt":`) {
		return false
	}
	halt, ok := s.integer()
	if !ok {
		return false
	}
	t.Halt = probe.HaltReason(halt)
	if s.lit(`,"err":`) {
		str, ok := s.str()
		if !ok || len(str) == 0 {
			return false
		}
		t.Err = string(str)
	}
	if s.lit(`,"reveal_errs":[`) {
		for {
			str, ok := s.str()
			if !ok {
				return false
			}
			t.RevealErrs = append(t.RevealErrs, string(str))
			if s.lit("]") {
				break
			}
			if !s.lit(",") {
				return false
			}
		}
	}
	return s.lit("}")
}

// hopList parses a non-null hop array into scratch, then copies it out
// into one exactly sized hop slice and one shared label-stack array.
func (d *traceDecoder) hopList(s *canonScanner) ([]probe.Hop, bool) {
	if !s.lit("[") {
		return nil, false
	}
	d.hops, d.lses, d.stacks = d.hops[:0], d.lses[:0], d.stacks[:0]
	if !s.lit("]") {
		for {
			d.hops = append(d.hops, probe.Hop{})
			if !d.hop(s, &d.hops[len(d.hops)-1]) {
				return nil, false
			}
			if s.lit("]") {
				break
			}
			if !s.lit(",") {
				return nil, false
			}
		}
	}
	hops := make([]probe.Hop, len(d.hops))
	copy(hops, d.hops)
	if len(d.lses) > 0 {
		all := make(mpls.Stack, len(d.lses))
		copy(all, d.lses)
		for _, sp := range d.stacks {
			hops[sp.hop].Stack = all[sp.lo:sp.hi:sp.hi]
		}
	}
	return hops, true
}

func (d *traceDecoder) hop(s *canonScanner, h *probe.Hop) bool {
	var ok bool
	if !s.lit(`{"ttl":`) {
		return false
	}
	if h.TTL, ok = s.integer(); !ok || !s.lit(`,"addr":`) {
		return false
	}
	if h.Addr, ok = s.addr(); !ok || !s.lit(`,"rtt_ms":`) {
		return false
	}
	if h.RTT, ok = s.float(); !ok || !s.lit(`,"icmp_type":`) {
		return false
	}
	if h.ICMPType, ok = s.octet(); !ok || !s.lit(`,"icmp_code":`) {
		return false
	}
	if h.ICMPCode, ok = s.octet(); !ok || !s.lit(`,"reply_ttl":`) {
		return false
	}
	if h.ReplyTTL, ok = s.octet(); !ok || !s.lit(`,"qttl":`) {
		return false
	}
	if h.QTTL, ok = s.octet(); !ok {
		return false
	}
	if s.lit(`,"stack":[`) {
		lo := len(d.lses)
		for {
			var e mpls.LSE
			if !lse(s, &e) {
				return false
			}
			d.lses = append(d.lses, e)
			if s.lit("]") {
				break
			}
			if !s.lit(",") {
				return false
			}
		}
		d.stacks = append(d.stacks, stackSpan{hop: len(d.hops) - 1, lo: lo, hi: len(d.lses)})
	}
	if s.lit(`,"revealed":true`) {
		h.Revealed = true
	}
	if s.lit(`,"decode_error":true`) {
		h.DecodeError = true
	}
	return s.lit("}")
}

func lse(s *canonScanner, e *mpls.LSE) bool {
	if !s.lit(`{"Label":`) {
		return false
	}
	label, ok := s.digits(math.MaxUint32)
	if !ok || !s.lit(`,"TC":`) {
		return false
	}
	e.Label = uint32(label)
	if e.TC, ok = s.octet(); !ok || !s.lit(`,"S":`) {
		return false
	}
	switch {
	case s.lit("true"):
		e.S = true
	case s.lit("false"):
	default:
		return false
	}
	if !s.lit(`,"TTL":`) {
		return false
	}
	if e.TTL, ok = s.octet(); !ok {
		return false
	}
	return s.lit("}")
}

// canonScanner walks one payload left to right. Each method consumes the
// construct it names and reports true, or reports false; a false leaves
// the position unspecified, since any false abandons the whole payload.
type canonScanner struct {
	b []byte
	i int
}

// lit consumes l if the input continues with it.
func (s *canonScanner) lit(l string) bool {
	if len(s.b)-s.i < len(l) || string(s.b[s.i:s.i+len(l)]) != l {
		return false
	}
	s.i += len(l)
	return true
}

func (s *canonScanner) end() bool { return s.i == len(s.b) }

// digits consumes a JSON integer's digit run (0 or [1-9][0-9]*) whose
// value is at most max. Every max here has at most 19 digits, and 19
// digits cannot wrap a uint64, so longer runs are refused unconverted.
func (s *canonScanner) digits(max uint64) (uint64, bool) {
	b, start := s.b, s.i
	i := start
	var v uint64
	for i < len(b) && b[i]-'0' <= 9 {
		v = v*10 + uint64(b[i]-'0')
		i++
	}
	s.i = i
	n := i - start
	if n == 0 || n > 19 || n > 1 && b[start] == '0' || v > max {
		return 0, false
	}
	return v, true
}

func (s *canonScanner) octet() (uint8, bool) {
	v, ok := s.digits(math.MaxUint8)
	return uint8(v), ok
}

// integer consumes a JSON integer in int's range; "-0" is not canonical.
func (s *canonScanner) integer() (int, bool) {
	if s.lit("-") {
		v, ok := s.digits(uint64(math.MaxInt) + 1)
		if !ok || v == 0 {
			return 0, false
		}
		return int(-v), true
	}
	v, ok := s.digits(math.MaxInt)
	return int(v), ok
}

// float consumes a JSON number and converts it as json.Unmarshal does,
// with strconv.ParseFloat; an out-of-range value is not canonical.
func (s *canonScanner) float() (float64, bool) {
	start := s.i
	s.lit("-")
	intPart := s.i
	if n, ok := s.run(); !ok || n > 1 && s.b[intPart] == '0' {
		return 0, false
	}
	if s.lit(".") {
		if _, ok := s.run(); !ok {
			return 0, false
		}
	}
	if s.lit("e") || s.lit("E") {
		if !s.lit("-") {
			s.lit("+")
		}
		if _, ok := s.run(); !ok {
			return 0, false
		}
	}
	f, err := strconv.ParseFloat(string(s.b[start:s.i]), 64)
	return f, err == nil
}

// run consumes one or more decimal digits.
func (s *canonScanner) run() (int, bool) {
	b, start := s.b, s.i
	i := start
	for i < len(b) && b[i]-'0' <= 9 {
		i++
	}
	s.i = i
	return i - start, i > start
}

// str consumes a JSON string of plain bytes and returns its contents.
func (s *canonScanner) str() ([]byte, bool) {
	if !s.lit(`"`) {
		return nil, false
	}
	b, start := s.b, s.i
	for i := start; i < len(b); i++ {
		c := b[i]
		if c == '"' {
			s.i = i + 1
			return b[start:i], true
		}
		if !plainByte(c) {
			return nil, false
		}
	}
	return nil, false
}

// addr consumes an address string. A dotted quad in ParseAddr's strict
// form is parsed in place; anything else goes through netip.ParseAddr as
// netip.Addr.UnmarshalText would, and a parse error is not canonical.
func (s *canonScanner) addr() (netip.Addr, bool) {
	text, ok := s.str()
	if !ok {
		return netip.Addr{}, false
	}
	if len(text) == 0 {
		return netip.Addr{}, true
	}
	if a, ok := parseDottedQuad(text); ok {
		return a, true
	}
	a, err := netip.ParseAddr(string(text))
	return a, err == nil
}

// parseDottedQuad parses exactly four decimal octets without leading
// zeros, the only IPv4 text netip.ParseAddr accepts.
func parseDottedQuad(text []byte) (netip.Addr, bool) {
	var q [4]byte
	s := canonScanner{b: text}
	for k := range q {
		if k > 0 && !s.lit(".") {
			return netip.Addr{}, false
		}
		v, ok := s.digits(math.MaxUint8)
		if !ok {
			return netip.Addr{}, false
		}
		q[k] = byte(v)
	}
	return netip.AddrFrom4(q), s.end()
}
