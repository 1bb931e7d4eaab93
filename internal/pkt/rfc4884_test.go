package pkt

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"testing"
)

func TestAppendPaddedOriginalPadsShortQuote(t *testing.T) {
	orig := []byte{1, 2, 3, 4, 5}
	got := appendPaddedOriginal(nil, orig)
	if len(got) != origDatagramPadLen {
		t.Fatalf("padded length = %d, want %d", len(got), origDatagramPadLen)
	}
	if !bytes.Equal(got[:5], orig) {
		t.Fatalf("quote prefix = %x", got[:5])
	}
	for i, b := range got[5:] {
		if b != 0 {
			t.Fatalf("padding byte %d = %#x, want 0", 5+i, b)
		}
	}
}

func TestAppendPaddedOriginalTruncatesLongQuote(t *testing.T) {
	orig := make([]byte, origDatagramPadLen+40)
	for i := range orig {
		orig[i] = byte(i)
	}
	got := appendPaddedOriginal(nil, orig)
	if len(got) != origDatagramPadLen {
		t.Fatalf("padded length = %d, want %d", len(got), origDatagramPadLen)
	}
	if !bytes.Equal(got, orig[:origDatagramPadLen]) {
		t.Fatal("truncated quote differs from the original's prefix")
	}
}

// A recycled buffer full of garbage must not show through the zero padding.
func TestAppendPaddedOriginalOverwritesDirtyScratch(t *testing.T) {
	scratch := bytes.Repeat([]byte{0xa5}, origDatagramPadLen)
	got := appendPaddedOriginal(scratch[:0], []byte{9, 9})
	for i, b := range got[2:] {
		if b != 0 {
			t.Fatalf("stale byte %#x leaked at offset %d", b, 2+i)
		}
	}
}

func TestTrimOriginalIPv4(t *testing.T) {
	p := &IPv4{TTL: 5, Protocol: ProtoUDP, Src: addr("10.0.0.1"),
		Dst: addr("10.0.0.2"), Payload: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
	wire, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	padded := appendPaddedOriginal(nil, wire)
	got := trimOriginal(padded)
	if !bytes.Equal(got, wire) {
		t.Fatalf("trim = %d bytes, want the %d-byte quote back", len(got), len(wire))
	}
	// Zero-copy: the trimmed slice must alias the padded field.
	if &got[0] != &padded[0] {
		t.Fatal("trimOriginal must not copy")
	}
}

// An ICMPv4 error may quote an IPv6 datagram: the quote's length comes
// from the IPv6 payload-length field, not from an IPv4 total length.
func TestTrimOriginalIPv6(t *testing.T) {
	wire := make([]byte, IPv6HeaderLen, IPv6HeaderLen+4)
	wire[0] = 6 << 4
	binary.BigEndian.PutUint16(wire[4:], 4) // payload length
	wire[6] = 58                            // next header: ICMPv6
	wire[7] = 3                             // hop limit
	copy(wire[8:24], netip.MustParseAddr("2001:db8::1").AsSlice())
	copy(wire[24:40], netip.MustParseAddr("2001:db8::2").AsSlice())
	wire = append(wire, 1, 2, 3, 4)
	padded := appendPaddedOriginal(nil, wire)
	if got := trimOriginal(padded); !bytes.Equal(got, wire) {
		t.Fatalf("v6 trim = %d bytes, want %d", len(got), len(wire))
	}
}

func TestQuotedLenKeepsUnparseableQuotes(t *testing.T) {
	cases := map[string][]byte{
		"empty":             {},
		"short":             {0x45, 0},
		"bad version":       bytes.Repeat([]byte{0x75}, 40),
		"v4 total too big":  append([]byte{0x45, 0, 0xff, 0xff}, make([]byte, 36)...),
		"v4 total under 20": append([]byte{0x45, 0, 0, 4}, make([]byte, 36)...),
	}
	for name, b := range cases {
		if got := quotedLen(b); got != len(b) {
			t.Errorf("%s: quotedLen = %d, want whole field %d", name, got, len(b))
		}
	}
}

func TestQuotedLenTruncatedV6(t *testing.T) {
	// A v6 header whose payload length points past the field keeps the
	// whole field rather than inventing bytes.
	b := make([]byte, IPv6HeaderLen)
	b[0] = 6 << 4
	binary.BigEndian.PutUint16(b[4:], 100)
	if got := quotedLen(b); got != len(b) {
		t.Fatalf("quotedLen = %d, want %d", got, len(b))
	}
}
