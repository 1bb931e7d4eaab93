package archive

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/netip"
	"testing"

	"arest/internal/mpls"
	"arest/internal/probe"
)

// FuzzReadArchive throws arbitrary byte streams at the reader. The
// contract under attack: never panic, never allocate past MaxPayload per
// record, and classify every failure as ErrBadMagic, ErrTruncated, or
// ErrCorrupt. Seeds cover a valid archive plus the corruptions the unit
// tests pin individually.
func FuzzReadArchive(f *testing.F) {
	valid := encode(f, fixtureData())
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(Magic))                      // magic, no records
	f.Add(valid[:len(valid)/2])               // mid-record cut
	f.Add(valid[:len(valid)-2])               // trailer cut
	f.Add([]byte("#{\"asn\":1}\n{}\n"))       // legacy jsonl
	f.Add([]byte("arest.archive.v2\nfuture")) // future magic
	flip := bytes.Clone(valid)
	flip[len(Magic)+9] ^= 0xff // payload bit flip -> CRC mismatch
	f.Add(flip)
	long := append([]byte(Magic), byte(TypeTrace), 0xff, 0xff, 0xff, 0xff) // length past cap
	f.Add(long)

	f.Fuzz(func(t *testing.T, in []byte) {
		d, err := ReadData(bytes.NewReader(in))
		if err != nil {
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("unclassified error: %v", err)
			}
			return
		}
		// An accepted stream must re-encode without error, and the result
		// must decode to the same value (the roundtrip fixpoint).
		var buf bytes.Buffer
		if err := WriteData(&buf, d); err != nil {
			t.Fatalf("accepted data does not re-encode: %v", err)
		}
		if _, err := ReadData(&buf); err != nil {
			t.Fatalf("re-encoded data does not decode: %v", err)
		}
	})
}

// FuzzReaderNext drives the streaming layer directly so the framing code
// is exercised even on inputs the Data aggregation would reject early.
func FuzzReaderNext(f *testing.F) {
	f.Add(encode(f, fixtureData()))
	f.Add([]byte(Magic))
	f.Fuzz(func(t *testing.T, in []byte) {
		ar, err := NewReader(bytes.NewReader(in))
		if err != nil {
			return
		}
		for i := 0; i < 1<<16; i++ {
			typ, _, err := ar.Next()
			if err == io.EOF || err != nil || typ == TypeEnd {
				return
			}
		}
	})
}

// FuzzTraceRecordDecode is the differential guard on the trace scanner:
// for any payload bytes, the accept/reject decision and the decoded value
// must be json.Unmarshal's, and whatever the scanner accepts on its own
// must already be json.Unmarshal's exact value.
func FuzzTraceRecordDecode(f *testing.F) {
	for _, rec := range codecTraces() {
		if body, err := json.Marshal(rec); err == nil {
			f.Add(body)
		}
	}
	d := fixtureDataV2()
	for _, ts := range d.PerVP {
		for _, tr := range ts {
			body, err := json.Marshal(TraceRecord{VPIndex: 0, Trace: tr})
			if err != nil {
				f.Fatal(err)
			}
			f.Add(body)
			var indented bytes.Buffer
			if err := json.Indent(&indented, body, "", " "); err != nil {
				f.Fatal(err)
			}
			f.Add(indented.Bytes())
		}
	}
	f.Add([]byte(`{"vp_index":0,"trace":{"vp":"","dst":"","flow_id":0,"hops":null,"halt":0}}`))
	f.Add([]byte(`{"vp_index":0,"trace":{"vp":"","dst":"","flow_id":0,"hops":[],"halt":0}}`))
	f.Add([]byte(`{"vp_index":0,"trace":null}`))
	f.Add([]byte(`{"trace":{"hops":[{"stack":[]}]},"vp_index":0}`))
	f.Add([]byte(`{"VP_INDEX":1,"trace":{"HOPS":[{"TTL":1,"rtt_ms":1e400}]}}`))
	f.Fuzz(func(t *testing.T, in []byte) {
		checkDecode(t, in)
	})
}

// FuzzTraceRecordEncode is the differential guard on the trace encoder:
// for a trace built from fuzzed fields — non-finite RTTs, text that needs
// escaping or is not UTF-8, zoned IPv6, nil against empty slices — the
// bytes and the error must be json.Marshal's, and the bytes must decode
// to json.Unmarshal's value, through the scanner whenever they are plain
// ASCII.
func FuzzTraceRecordEncode(f *testing.F) {
	f.Add(0, []byte{10, 0, 0, 1}, "", uint16(3), uint8(4), 1, 1.25, uint32(0x0b00fd02), uint32(16005), uint8(2), uint8(0), "", "")
	f.Add(-1, []byte(netip.MustParseAddr("fe80::1").AsSlice()), "eth0", uint16(0), uint8(1), -3, math.NaN(), uint32(0), uint32(1<<20), uint8(1), uint8(0xff), "<err>\x00\xff", " ")
	f.Add(7, []byte{}, "", uint16(65535), uint8(0), 0, math.Inf(-1), uint32(0xffffffff), uint32(0), uint8(0), uint8(0x0c), "timeout", "")
	f.Add(1, []byte(netip.MustParseAddr("::ffff:10.0.0.1").AsSlice()), "%\"", uint16(1), uint8(3), 255, 1e-7, uint32(0x03030000), uint32(3), uint8(3), uint8(0x03), "", "x")
	f.Fuzz(func(t *testing.T, vpIndex int, ip []byte, zone string, flow uint16, nhops uint8, ttl int,
		rtt float64, icmp uint32, label uint32, nlse uint8, flags uint8, errText, revealErr string) {
		var a netip.Addr
		switch len(ip) {
		case 4:
			a = netip.AddrFrom4([4]byte(ip))
		case 16:
			a = netip.AddrFrom16([16]byte(ip)).WithZone(zone)
		}
		tr := &probe.Trace{VP: a, Dst: a.Prev(), FlowID: flow, Halt: probe.HaltReason(ttl), Err: errText}
		if revealErr != "" || flags&0x08 != 0 {
			tr.RevealErrs = []string{revealErr, errText}
		}
		if flags&0x04 == 0 {
			tr.Hops = []probe.Hop{}
		}
		for i := 0; i < int(nhops%6); i++ {
			h := probe.Hop{
				TTL: ttl + i, RTT: rtt / float64(i+1),
				ICMPType: uint8(icmp >> 24), ICMPCode: uint8(icmp >> 16), ReplyTTL: uint8(icmp >> 8), QTTL: uint8(icmp),
				Revealed: flags&0x01 != 0, DecodeError: flags&0x02 != 0,
			}
			if i%2 == 0 {
				h.Addr = a
			}
			if flags&0x10 != 0 {
				h.Stack = mpls.Stack{}
			}
			for k := 0; k < int(nlse%4); k++ {
				h.Stack = append(h.Stack, mpls.LSE{Label: label + uint32(k), TC: uint8(k), S: k == int(nlse%4)-1, TTL: uint8(ttl)})
			}
			tr.Hops = append(tr.Hops, h)
		}
		rec := &TraceRecord{VPIndex: vpIndex, Trace: tr}
		if flags&0x20 != 0 {
			rec.Trace = nil
		}
		body := checkEncode(t, rec)
		if body == nil {
			return
		}
		plain := bytes.IndexByte(body, '\\') < 0 && !bytes.ContainsFunc(body, func(r rune) bool { return r >= 0x80 })
		if canonical := checkDecode(t, body); canonical != plain {
			t.Fatalf("scanner accepted=%v on plain=%v encoder output %s", canonical, plain, body)
		}
	})
}
