package archive

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

const goldenPathV2 = "testdata/golden_v2.arest"

// TestGoldenV2 pins the on-disk bytes of format v2. If it fails after a
// code change, existing v2 archives would re-encode differently — that
// needs a format bump (arest.archive.v3), not a golden refresh. Regenerate
// with `go test ./internal/archive -run Golden -update` only when the
// fixture itself was deliberately extended.
func TestGoldenV2(t *testing.T) {
	raw := encode(t, fixtureData())
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPathV2), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPathV2, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenPathV2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadData(bytes.NewReader(golden))
	if err != nil {
		t.Fatalf("golden archive no longer decodes: %v", err)
	}
	// Decoding the golden bytes must reproduce the fixture value, and
	// encoding the fixture must reproduce the golden bytes exactly.
	if want := fixtureData(); !reflect.DeepEqual(got, want) {
		t.Errorf("golden decode diverged from fixture:\n got %+v\nwant %+v", got, want)
	}
	if !bytes.Equal(raw, golden) {
		t.Errorf("encoder output changed: %d bytes, golden %d bytes; the v2 format is frozen",
			len(raw), len(golden))
	}
}
