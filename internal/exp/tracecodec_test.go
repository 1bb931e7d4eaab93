package exp

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"arest/internal/archive"
	"arest/internal/probe"
)

// TestTraceCodecDefaultCampaign pins the archive's trace codec to
// encoding/json over every trace of the default campaign: each trace
// payload WriteData frames must be json.Marshal's bytes, in the plain
// ASCII layout the decoder's scanner takes without falling back to
// encoding/json, and ReadData must return json.Unmarshal's value for
// every one of them.
func TestTraceCodecDefaultCampaign(t *testing.T) {
	recs, data := defaultCampaignData(t)
	traces, payload := 0, 0
	for i, d := range data {
		var buf bytes.Buffer
		if err := archive.WriteData(&buf, d); err != nil {
			t.Fatalf("AS#%d: %v", recs[i].ID, err)
		}
		raw := buf.Bytes()
		ar, err := archive.NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		ref := make([][]*probe.Trace, len(d.PerVP))
		for vp, ts := range d.PerVP {
			for _, tr := range ts {
				typ, body, err := ar.Next()
				for err == nil && typ != archive.TypeTrace {
					typ, body, err = ar.Next()
				}
				if err != nil {
					t.Fatalf("AS#%d: %v", recs[i].ID, err)
				}
				want, err := json.Marshal(archive.TraceRecord{VPIndex: vp, Trace: tr})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(body, want) {
					t.Fatalf("AS#%d: trace payload diverges from json.Marshal:\n got %s\nwant %s", recs[i].ID, body, want)
				}
				if k := bytes.IndexFunc(body, func(r rune) bool { return r == '\\' || r >= 0x80 }); k >= 0 {
					t.Fatalf("AS#%d: payload byte %d is outside the scanner's plain layout: %s", recs[i].ID, k, body)
				}
				var rec archive.TraceRecord
				if err := json.Unmarshal(body, &rec); err != nil {
					t.Fatal(err)
				}
				ref[vp] = append(ref[vp], rec.Trace)
				traces++
				payload += len(body)
			}
		}
		got, err := archive.ReadData(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("AS#%d: %v", recs[i].ID, err)
		}
		for vp := range ref {
			if !reflect.DeepEqual(got.PerVP[vp], ref[vp]) {
				t.Fatalf("AS#%d vp %d: decoded traces diverge from json.Unmarshal", recs[i].ID, vp)
			}
		}
	}
	t.Logf("%d trace records, %d payload bytes, over %d ASes", traces, payload, len(recs))
}
