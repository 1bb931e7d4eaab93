package archive

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/netip"
	"reflect"
	"strings"
	"testing"

	"arest/internal/mpls"
	"arest/internal/probe"
)

// checkEncode asserts appendTraceRecord matches json.Marshal on rec: the
// same bytes when json.Marshal succeeds, the same error text (and dst
// untouched) when it fails.
func checkEncode(t *testing.T, rec *TraceRecord) []byte {
	t.Helper()
	want, wantErr := json.Marshal(rec)
	const prefix = "prefix"
	got, err := appendTraceRecord([]byte(prefix), rec)
	switch {
	case wantErr != nil:
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("codec error %v, json.Marshal error %v", err, wantErr)
		}
		if string(got) != prefix {
			t.Fatalf("failed encode left %q in dst, want %q", got, prefix)
		}
		return nil
	case err != nil:
		t.Fatalf("codec error %v where json.Marshal succeeds with %s", err, want)
	}
	if !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("codec bytes diverge from json.Marshal:\n got %s\nwant %s", got[len(prefix):], want)
	}
	return want
}

// checkDecode asserts the decoder agrees with json.Unmarshal on in: an
// accepted canonical payload decodes deep-equal to json.Unmarshal's value,
// and the full decode (scanner plus fallback) has json.Unmarshal's value
// or its error text under ErrCorrupt. It reports whether the scanner
// accepted in.
func checkDecode(t *testing.T, in []byte) bool {
	t.Helper()
	var want TraceRecord
	wantErr := json.Unmarshal(in, &want)
	var d traceDecoder
	var fast TraceRecord
	canonical := d.decodeCanonical(in, &fast)
	if canonical {
		if wantErr != nil {
			t.Fatalf("scanner accepted %q, json.Unmarshal refuses it: %v", in, wantErr)
		}
		if !reflect.DeepEqual(fast, want) {
			t.Fatalf("scanner value diverges on %q:\n got %+v\nwant %+v", in, fast, want)
		}
	}
	var got TraceRecord
	err := d.decodeTraceRecord(in, &got)
	switch {
	case wantErr != nil:
		if err == nil || !errors.Is(err, ErrCorrupt) || err.Error() != ErrCorrupt.Error()+": "+wantErr.Error() {
			t.Fatalf("decode error %v on %q, want ErrCorrupt wrapping %v", err, in, wantErr)
		}
	case err != nil:
		t.Fatalf("decode error %v on %q, json.Unmarshal accepts it", err, in)
	case !reflect.DeepEqual(got, want):
		t.Fatalf("decoded value diverges on %q:\n got %+v\nwant %+v", in, got, want)
	}
	return canonical
}

// codecTraces covers every field, omitempty rule and number form the
// payload can carry.
func codecTraces() []*TraceRecord {
	v4 := netip.MustParseAddr("10.1.2.3")
	v6 := netip.MustParseAddr("2001:db8::1")
	hop := probe.Hop{TTL: 1, Addr: v4, RTT: 2.0999999999999996, ICMPType: 11, ReplyTTL: 253, QTTL: 2}
	withStack := hop
	withStack.Stack = mpls.Stack{{Label: 16005, TC: 1, S: false, TTL: 1}, {Label: mpls.MaxLabel, TC: 7, S: true, TTL: 255}}
	withStack.Revealed = true
	withStack.DecodeError = true
	floats := []float64{0, math.Copysign(0, -1), 1e-6, 9.99e-7, 1e-7, 1e20, 1e21, 123456789e15, -3.5e-300, math.MaxFloat64, math.SmallestNonzeroFloat64}
	var floatHops []probe.Hop
	for i, f := range floats {
		floatHops = append(floatHops, probe.Hop{TTL: i + 1, RTT: f})
	}
	return []*TraceRecord{
		{VPIndex: 0},
		{VPIndex: 3, Trace: &probe.Trace{}},
		{VPIndex: 1, Trace: &probe.Trace{VP: v4, Dst: v4, Hops: []probe.Hop{}}},
		{VPIndex: math.MaxInt, Trace: &probe.Trace{VP: v4, Dst: v6, FlowID: math.MaxUint16,
			Hops: []probe.Hop{hop, {TTL: 2}, withStack, {TTL: -7, Addr: v6, RTT: -1}}, Halt: probe.HaltLoop}},
		{VPIndex: -1, Trace: &probe.Trace{VP: netip.MustParseAddr("::ffff:192.0.2.1"), Dst: netip.MustParseAddr("fe80::1%eth0"),
			Hops: floatHops, Halt: probe.HaltError, Err: "exchange: i/o timeout",
			RevealErrs: []string{"ttl 3: no reply", "ttl 7: refused"}}},
		{Trace: &probe.Trace{Err: "<b>&\"quoted\"\\ \x01\u2028 é \xff", RevealErrs: []string{"", "\t"},
			Dst: netip.MustParseAddr("fe80::2%<&>\"")}},
		{Trace: &probe.Trace{Halt: math.MinInt, RevealErrs: []string{}, Hops: []probe.Hop{{Stack: mpls.Stack{}}}}},
	}
}

func TestTraceCodecMatchesEncodingJSON(t *testing.T) {
	for i, rec := range codecTraces() {
		want := checkEncode(t, rec)
		canonical := checkDecode(t, want)
		plain := bytes.IndexByte(want, '\\') < 0 && !bytes.ContainsFunc(want, func(r rune) bool { return r >= 0x80 })
		if canonical != plain {
			t.Errorf("trace %d: scanner accepted=%v on its own encoder's output %s", i, canonical, want)
		}
	}
}

func TestTraceCodecRefusesWhereJSONDoes(t *testing.T) {
	for _, rtt := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		rec := &TraceRecord{Trace: &probe.Trace{Hops: []probe.Hop{{TTL: 1}, {TTL: 2, RTT: rtt}}}}
		checkEncode(t, rec)
		d := fixtureData()
		d.PerVP[0][0].Hops[0].RTT = rtt
		var buf bytes.Buffer
		err := WriteData(&buf, d)
		if err == nil || !strings.HasPrefix(err.Error(), "archive: encode trace: json: unsupported value: ") {
			t.Errorf("WriteData with RTT %v: error %v, want encoding/json's unsupported-value error", rtt, err)
		}
	}
}

// TestTraceDecodeRejectsNonCanonical pins the scanner's refusals: each
// payload deviates from json.Marshal's layout, so it must take the
// json.Unmarshal path, which then decides acceptance and value.
func TestTraceDecodeRejectsNonCanonical(t *testing.T) {
	const canon = `{"vp_index":1,"trace":{"vp":"10.0.0.1","dst":"10.0.0.2","flow_id":2,"hops":[{"ttl":1,"addr":"10.0.0.3","rtt_ms":0.5,"icmp_type":11,"icmp_code":0,"reply_ttl":254,"qttl":1,"stack":[{"Label":16001,"TC":0,"S":true,"TTL":1}]}],"halt":0}}`
	if !checkDecode(t, []byte(canon)) {
		t.Fatal("scanner refuses the canonical layout")
	}
	for _, tc := range []struct{ name, in string }{
		{"leading whitespace", " " + canon},
		{"trailing whitespace", canon + "\n"},
		{"inner whitespace", strings.Replace(canon, `"flow_id":2`, `"flow_id": 2`, 1)},
		{"key order", strings.Replace(canon, `"vp":"10.0.0.1","dst":"10.0.0.2"`, `"dst":"10.0.0.2","vp":"10.0.0.1"`, 1)},
		{"case-folded key", strings.Replace(canon, `"Label"`, `"label"`, 1)},
		{"unknown key", strings.Replace(canon, `"halt":0`, `"halt":0,"extra":1`, 1)},
		{"duplicate key", strings.Replace(canon, `"halt":0`, `"halt":0,"halt":1`, 1)},
		{"escaped address", strings.Replace(canon, `"10.0.0.1"`, `"10.0.0.\u0031"`, 1)},
		{"non-ASCII error", strings.Replace(canon, `"halt":0`, `"halt":4,"err":"é"`, 1)},
		{"empty error", strings.Replace(canon, `"halt":0`, `"halt":0,"err":""`, 1)},
		{"empty reveal errors", strings.Replace(canon, `"halt":0`, `"halt":0,"reveal_errs":[]`, 1)},
		{"null reveal errors", strings.Replace(canon, `"halt":0`, `"halt":0,"reveal_errs":null`, 1)},
		{"empty stack", strings.Replace(canon, `[{"Label":16001,"TC":0,"S":true,"TTL":1}]`, `[]`, 1)},
		{"null stack", strings.Replace(canon, `[{"Label":16001,"TC":0,"S":true,"TTL":1}]`, `null`, 1)},
		{"explicit false flag", strings.Replace(canon, `"qttl":1`, `"qttl":1,"revealed":false`, 1)},
		{"uint8 overflow", strings.Replace(canon, `"reply_ttl":254`, `"reply_ttl":256`, 1)},
		{"uint16 overflow", strings.Replace(canon, `"flow_id":2`, `"flow_id":65536`, 1)},
		{"label overflow", strings.Replace(canon, `"Label":16001`, `"Label":4294967296`, 1)},
		{"int overflow", strings.Replace(canon, `"vp_index":1`, `"vp_index":9223372036854775808`, 1)},
		{"float overflow", strings.Replace(canon, `"rtt_ms":0.5`, `"rtt_ms":1e400`, 1)},
		{"leading zero", strings.Replace(canon, `"flow_id":2`, `"flow_id":02`, 1)},
		{"float leading zero", strings.Replace(canon, `"rtt_ms":0.5`, `"rtt_ms":00.5`, 1)},
		{"negative zero int", strings.Replace(canon, `"vp_index":1`, `"vp_index":-0`, 1)},
		{"fractional int", strings.Replace(canon, `"ttl":1`, `"ttl":1.0`, 1)},
		{"negative uint", strings.Replace(canon, `"icmp_type":11`, `"icmp_type":-11`, 1)},
		{"quoted number", strings.Replace(canon, `"flow_id":2`, `"flow_id":"2"`, 1)},
		{"null address", strings.Replace(canon, `"10.0.0.1"`, `null`, 1)},
		{"address leading zero", strings.Replace(canon, `"10.0.0.1"`, `"10.0.0.01"`, 1)},
		{"bad address", strings.Replace(canon, `"10.0.0.1"`, `"10.0.0"`, 1)},
		{"truncated", canon[:len(canon)-1]},
		{"trailing value", canon + "{}"},
		{"not an object", `[]`},
	} {
		if checkDecode(t, []byte(tc.in)) {
			t.Errorf("%s: scanner accepted %s", tc.name, tc.in)
		}
	}
}

// TestTraceDecodeCopiesOutOfScratch guards the decoder's scratch reuse: a
// trace decoded earlier must not change when the decoder moves on.
func TestTraceDecodeCopiesOutOfScratch(t *testing.T) {
	var d traceDecoder
	recs := codecTraces()
	got := make([]TraceRecord, len(recs))
	want := make([]TraceRecord, len(recs))
	for i, rec := range recs {
		body, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(body, &want[i]); err != nil {
			t.Fatal(err)
		}
		if err := d.decodeTraceRecord(body, &got[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range recs {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("trace %d changed after later decodes:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}
