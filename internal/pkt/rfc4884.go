package pkt

import "encoding/binary"

// This file holds the RFC 4884 original-datagram helpers of the ICMP
// codec. The quoted datagram is padded to a fixed 128-byte field when
// extension objects follow it, and that zero padding is stripped on decode
// by re-reading the quoted IP total length.

// IPv6HeaderLen is the fixed IPv6 header length. An ICMPv4 error received
// off the wire may quote an IPv6 datagram; quotedLen sizes such a quote
// from it.
const IPv6HeaderLen = 40

// appendPaddedOriginal appends the RFC 4884 original datagram field: orig
// truncated to origDatagramPadLen bytes, zero-padded up to exactly that
// length. Every byte of the appended region is written, so dst may be a
// recycled scratch buffer.
func appendPaddedOriginal(dst, orig []byte) []byte {
	b, off := grow(dst, origDatagramPadLen)
	if len(orig) > origDatagramPadLen {
		orig = orig[:origDatagramPadLen]
	}
	n := copy(b[off:], orig)
	pad := b[off+n : off+origDatagramPadLen]
	for i := range pad {
		pad[i] = 0
	}
	return b
}

// quotedLen returns how many leading bytes of a padded RFC 4884 original
// datagram field belong to the quoted datagram, re-reading the quoted IP
// total length (IPv4 or IPv6, by version nibble). Unparseable or
// truncated quotes keep the whole field: len(b).
func quotedLen(b []byte) int {
	switch {
	case len(b) >= IPv4HeaderLen && b[0]>>4 == 4:
		total := int(binary.BigEndian.Uint16(b[2:]))
		if total >= IPv4HeaderLen && total <= len(b) {
			return total
		}
	case len(b) >= IPv6HeaderLen && b[0]>>4 == 6:
		total := IPv6HeaderLen + int(binary.BigEndian.Uint16(b[4:]))
		if total <= len(b) {
			return total
		}
	}
	return len(b)
}

// trimOriginal strips RFC 4884 zero padding from a quoted datagram without
// copying: the result aliases b.
func trimOriginal(b []byte) []byte {
	return b[:quotedLen(b)]
}
