package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"arest/internal/archive"
	"arest/internal/asgen"
	"arest/internal/exp"
	"arest/internal/lifecycle"
)

// writeArchive measures one small AS and persists it as a v2 archive for
// the analyzer to consume.
func writeArchive(t *testing.T) string {
	t.Helper()
	rec, ok := asgen.ByID(2)
	if !ok {
		t.Fatal("AS#2 missing from catalogue")
	}
	cfg := exp.DefaultConfig()
	cfg.Seed = 101
	cfg.NumVPs = 3
	cfg.MaxTargets = 8
	data, err := exp.MeasureAS(context.Background(), rec, cfg)
	if err != nil {
		t.Fatalf("MeasureAS: %v", err)
	}
	path := filepath.Join(t.TempDir(), "as2.arest")
	if err := archive.WriteFile(path, data); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	return path
}

func noHard(t *testing.T) func() {
	return func() { t.Error("hard abort invoked without a second signal") }
}

// TestDeadlineSuppressesPartialReport: an expired deadline aborts the
// analysis stream with the resumable status and never emits a truncated
// report.
func TestDeadlineSuppressesPartialReport(t *testing.T) {
	path := writeArchive(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-i", path, "-deadline", "1ns"}, nil, noHard(t), strings.NewReader(""), &stdout, &stderr)
	if code != lifecycle.ExitInterrupted {
		t.Fatalf("exit = %d, want %d\nstderr: %s", code, lifecycle.ExitInterrupted, stderr.String())
	}
	if !bytes.Contains(stderr.Bytes(), []byte("partial report suppressed")) {
		t.Errorf("stderr does not explain the suppressed report:\n%s", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("interrupted analysis still wrote %d bytes of report", stdout.Len())
	}
}

// TestSignalSuppressesPartialReport: a pre-queued signal behaves exactly
// like the deadline — same status, same suppression.
func TestSignalSuppressesPartialReport(t *testing.T) {
	path := writeArchive(t)
	sigs := make(chan os.Signal, 2)
	sigs <- syscall.SIGINT
	var stdout, stderr bytes.Buffer
	code := run([]string{"-i", path}, sigs, noHard(t), strings.NewReader(""), &stdout, &stderr)
	if code != lifecycle.ExitInterrupted {
		t.Fatalf("exit = %d, want %d\nstderr: %s", code, lifecycle.ExitInterrupted, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("interrupted analysis still wrote %d bytes of report", stdout.Len())
	}
}

// TestCleanAnalysisSucceeds: the same archive analyzes to a full report
// when nothing interferes, headed by the archive's campaign metadata and
// trace count.
func TestCleanAnalysisSucceeds(t *testing.T) {
	path := writeArchive(t)
	data, err := archive.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-i", path}, nil, noHard(t), strings.NewReader(""), &stdout, &stderr); code != lifecycle.ExitOK {
		t.Fatalf("exit = %d, want 0\nstderr: %s", code, stderr.String())
	}
	want := fmt.Sprintf("campaign: %s (AS%d), %d traces\n", data.Meta.Record.Name, data.Meta.Record.ASN, len(data.Traces()))
	if !strings.HasPrefix(stdout.String(), want) {
		t.Errorf("report header = %q, want %q", strings.SplitN(stdout.String(), "\n", 2)[0], want)
	}
}

// TestForeignInputRejected: input that is not a v2 archive — a JSON-Lines
// trace file or a retired v1 archive — fails with "bad magic" naming the
// prefix it found, and no report.
func TestForeignInputRejected(t *testing.T) {
	for _, tc := range []struct {
		name, in, prefix string
	}{
		{"jsonl", "#{\"asn\":1}\n{}\n", `"#{\"asn\":1}\n{}\n"`},
		{"v1 archive", "arest.archive.v1\n\x01", `"arest.archive.v1\n"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(nil, nil, noHard(t), strings.NewReader(tc.in), &stdout, &stderr)
			if code != lifecycle.ExitFailure {
				t.Fatalf("exit = %d, want %d\nstderr: %s", code, lifecycle.ExitFailure, stderr.String())
			}
			if msg := stderr.String(); !strings.Contains(msg, "bad magic") || !strings.Contains(msg, tc.prefix) {
				t.Errorf("stderr = %q, want bad magic naming %s", msg, tc.prefix)
			}
			if stdout.Len() != 0 {
				t.Errorf("rejected input still wrote %d bytes of report", stdout.Len())
			}
		})
	}
}
