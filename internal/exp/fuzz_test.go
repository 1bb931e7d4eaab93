package exp

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strconv"
	"testing"

	"arest/internal/archive"
	"arest/internal/asgen"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendFrame appends one archive record frame with a valid CRC-32C.
func appendFrame(dst []byte, t archive.Type, payload []byte) []byte {
	var hdr [5]byte
	hdr[0] = byte(t)
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	crc := crc32.Update(0, castagnoli, hdr[:])
	crc = crc32.Update(crc, castagnoli, payload)
	dst = append(dst, hdr[:]...)
	dst = append(dst, payload...)
	return binary.BigEndian.AppendUint32(dst, crc)
}

// FuzzDetectStream feeds arbitrary trace-record payloads to the streaming
// fold. Each input is framed with a valid checksum inside an otherwise
// valid v2 shard — a real measured AS's side data, one trace record, a
// matching end trailer — so the fuzzer gets past the CRC to the payload
// decoder and on into path building, detection and the aggregates. The
// fold must return a result or an error wrapping ErrCorrupt/ErrTruncated,
// and never panic.
func FuzzDetectStream(f *testing.F) {
	rec, ok := asgen.ByID(15)
	if !ok {
		f.Fatal("record 15 missing")
	}
	cfg := testCfg()
	cfg.NumVPs, cfg.MaxTargets = 2, 6
	data, err := MeasureAS(context.Background(), rec, cfg)
	if err != nil {
		f.Fatal(err)
	}
	var shard bytes.Buffer
	if err := archive.WriteData(&shard, data); err != nil {
		f.Fatal(err)
	}
	ar, err := archive.NewReader(&shard)
	if err != nil {
		f.Fatal(err)
	}
	head := []byte(archive.Magic)
	side := 0
	for {
		typ, body, err := ar.Next()
		if err != nil {
			f.Fatal(err)
		}
		if typ == archive.TypeEnd {
			break
		}
		if typ == archive.TypeTrace {
			f.Add(body)
			continue
		}
		head = appendFrame(head, typ, body)
		side++
	}
	end := []byte(`{"records":` + strconv.Itoa(side+1) + `,"traces":1}`)
	f.Add([]byte(`{"vp_index":1,"trace":{"vp":"","dst":"","flow_id":0,"hops":null,"halt":4,"err":"x"}}`))
	f.Add([]byte(`{"vp_index":0,"trace":{"vp":"1.2.3.4","dst":"::1%z","flow_id":0,"hops":[{"ttl":-5,"addr":"1.2.3.4","rtt_ms":-1,"icmp_type":3,"icmp_code":3,"reply_ttl":0,"qttl":255,"stack":[{"Label":1048575,"TC":7,"S":false,"TTL":0}],"revealed":true}],"halt":9}}`))
	f.Add([]byte(`{"vp_index":7,"trace":null}`))
	f.Add([]byte(`{ "vp_index" : 0 , "trace" : { "hops" : [ { } , { "ttl" : 1e3 } ] } }`))

	cfg.Workers = 1
	f.Fuzz(func(t *testing.T, payload []byte) {
		raw := appendFrame(append([]byte(nil), head...), archive.TypeTrace, payload)
		raw = appendFrame(raw, archive.TypeEnd, end)
		res, err := DetectStream(context.Background(), bytes.NewReader(raw), cfg)
		if err != nil {
			if !errors.Is(err, archive.ErrCorrupt) && !errors.Is(err, archive.ErrTruncated) {
				t.Fatalf("unclassified error: %v", err)
			}
			return
		}
		if res.Agg.Traces != 1 {
			t.Fatalf("folded %d traces from a one-trace shard", res.Agg.Traces)
		}
	})
}
