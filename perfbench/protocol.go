package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"arest/internal/exp"
)

// workload is one set of inputs and the passes that run over them.
type workload interface {
	// setup prepares the inputs and the reference outputs that every later
	// pass is checked against. It runs several times per run and is timed.
	setup(ctx context.Context) error
	// pass runs one untraced pass with the given worker count.
	pass(ctx context.Context, workers int) (output, error)
	// tracedPass runs one pass at one worker, with spans around every call
	// into a layer.
	tracedPass(ctx context.Context, t *tracer) (output, error)
	// check compares a pass's output with the reference.
	check(out output) error
	// score computes the ground-truth accuracy of the reference outputs.
	score(ctx context.Context) (accuracy, error)
	close()
}

// workloads maps each workload name to its constructor.
var workloads = map[string]func(b *bench) workload{
	"campaign": newCampaign,
	"sweep":    newSweep,
	"replay":   newReplay,
}

// scratchDir holds the files a run writes (replay shards), relative to
// the repository root.
const scratchDir = ".bench_build"

// output is what a pass produced, reduced to what the checks compare.
type output struct {
	ases   int // ASes attempted
	failed int // ASes quarantined by the pipeline
	traces int
	// digest covers the pass's whole output: the rendered transcript, or
	// the archive bytes of every AS.
	digest     [32]byte
	transcript []byte
	agg        *exp.Agg
}

// checkCommon compares the parts of an output every workload shares.
func checkCommon(got, want output) error {
	switch {
	case got.traces != want.traces:
		return checkf("%d traces, reference has %d", got.traces, want.traces)
	case got.failed != want.failed:
		return checkf("%d ASes quarantined, reference has %d", got.failed, want.failed)
	case got.digest != want.digest:
		return checkf("output digest %x differs from the reference %x", got.digest[:8], want.digest[:8])
	}
	return nil
}

// firstErr returns the first non-nil error of errs.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sample is one timed pass.
type sample struct {
	wall, cpu, allocMB, peakMB float64
}

// tally accumulates pass outcomes into the result's counts.
type tally struct {
	attempted, failed int
	checkFailed       bool
}

// add records one pass; it reports whether the pass's numbers count.
func (t *tally) add(out output, err error, what string) bool {
	t.attempted += out.ases
	if err != nil {
		t.failed += out.ases
		t.checkFailed = true
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
		return false
	}
	t.failed += out.failed
	return true
}

// runSetup runs one set-up. A set-up whose reference fails a check yields
// the result that records it; any other failure is an error.
func runSetup(ctx context.Context, w workload) (*result, error) {
	err := w.setup(ctx)
	if errors.Is(err, errCheck) {
		fmt.Fprintf(os.Stderr, "perfbench: setup: %v\n", err)
		return &result{Attempted: 1, Failed: 1, Metrics: map[string]metric{}}, nil
	}
	if err != nil {
		return &result{}, fmt.Errorf("setup: %w", err)
	}
	return nil, nil
}

// endToEnd runs the untraced protocol: several timed set-ups, then timed
// passes at the host's worker count for the configured time, then the
// accuracy scoring.
func (b *bench) endToEnd(ctx context.Context, w workload, meta map[string]any) (result, error) {
	var setupS []float64
	for i := 0; i < setups; i++ {
		settle()
		start := time.Now()
		if failed, err := runSetup(ctx, w); failed != nil || err != nil {
			return *failed, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}

	stopProfile, err := b.startProfile()
	if err != nil {
		return result{}, err
	}
	var t tally
	var samples []sample
	deadline := time.Now().Add(time.Duration(b.seconds * float64(time.Second)))
	for n := 1; n <= 3 || time.Now().Before(deadline); n++ {
		s, out, err := measure(func() (output, error) { return w.pass(ctx, b.workers) })
		if err == nil {
			err = w.check(out)
		}
		if t.add(out, err, fmt.Sprintf("pass %d", n)) {
			samples = append(samples, s)
		}
	}
	if err := stopProfile(); err != nil {
		return result{}, err
	}
	acc, err := w.score(ctx)
	if err != nil {
		return result{}, fmt.Errorf("score: %w", err)
	}

	col := func(f func(sample) float64) []float64 {
		xs := make([]float64, len(samples))
		for i, s := range samples {
			xs[i] = f(s)
		}
		return xs
	}
	walls := col(func(s sample) float64 { return s.wall })
	meta["passes"] = len(samples)
	meta["pass_wall_s"] = walls
	meta["setup_runs_s"] = setupS
	res := result{Correct: !t.checkFailed, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	if len(samples) == 0 {
		res.Correct = false
		return res, nil
	}
	m := res.Metrics
	m["setup_s"] = metric{median(setupS), "s"}
	m["wall_s"] = metric{median(walls), "s"}
	m["cpu_s"] = metric{median(col(func(s sample) float64 { return s.cpu })), "s"}
	m["alloc_mb"] = metric{median(col(func(s sample) float64 { return s.allocMB })), "MB"}
	m["peak_heap_mb"] = metric{median(col(func(s sample) float64 { return s.peakMB })), "MB"}
	m["ok_ratio"] = metric{float64(t.attempted-t.failed) / float64(t.attempted), "ratio"}
	m["sr_precision"] = metric{acc.srPrecision(), "ratio"}
	m["sr_recall"] = metric{acc.srRecall(), "ratio"}
	m["alias_precision"] = metric{acc.aliasB3Precision(), "ratio"}
	m["alias_recall"] = metric{acc.aliasB3Recall(), "ratio"}
	return res, nil
}

// traced runs the per-layer protocol: one set-up for the reference
// outputs, untraced one-worker passes for the configured time (the base
// the tracing overhead is taken against), then one traced one-worker pass
// whose output must equal the host-worker reference.
func (b *bench) traced(ctx context.Context, w workload, meta map[string]any) (result, error) {
	if failed, err := runSetup(ctx, w); failed != nil || err != nil {
		return *failed, err
	}

	var t tally
	var walls []float64
	deadline := time.Now().Add(time.Duration(b.seconds * float64(time.Second)))
	for len(walls) == 0 || time.Now().Before(deadline) {
		s, out, err := measure(func() (output, error) { return w.pass(ctx, 1) })
		if err == nil {
			err = w.check(out)
		}
		if !t.add(out, err, "untraced one-worker pass") {
			break
		}
		walls = append(walls, s.wall)
	}

	settle()
	tr := newTracer()
	out, err := w.tracedPass(ctx, tr)
	if err == nil {
		err = w.check(out)
	}
	ok := t.add(out, err, "traced pass")
	acc, err := w.score(ctx)
	if err != nil {
		return result{}, fmt.Errorf("score: %w", err)
	}
	meta["passes"] = len(walls)
	meta["pass_wall_s"] = walls
	res := result{Correct: !t.checkFailed, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	if !ok || len(walls) == 0 {
		res.Correct = false
		return res, nil
	}
	res.Metrics = tr.layerMetrics(median(walls), meta)
	res.Metrics["alias.pair_precision"] = metric{acc.aliasPairPrecision(), "ratio"}
	res.Metrics["alias.pair_recall"] = metric{acc.aliasPairRecall(), "ratio"}
	return res, nil
}

// startProfile starts the CPU profile when one is asked for; stop ends it
// and closes the file.
func (b *bench) startProfile() (stop func() error, err error) {
	if b.cpuprofile == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(b.cpuprofile)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// settle collects garbage and returns freed memory to the OS, so that each
// set-up starts from a cold heap.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// measure times one pass: wall and CPU time, bytes allocated, and the peak
// of the sampled heap.
func measure(pass func() (output, error)) (sample, output, error) {
	// Collect garbage so each pass starts from the same heap, but keep the
	// freed pages: returning them would make every pass fault them back in.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuSeconds()
	hs := startHeapSampler()
	start := time.Now()
	out, err := pass()
	wall := time.Since(start).Seconds()
	peak := hs.stop()
	cpu := cpuSeconds() - cpu0
	runtime.ReadMemStats(&after)
	return sample{
		wall:    wall,
		cpu:     cpu,
		allocMB: float64(after.TotalAlloc-before.TotalAlloc) / 1e6,
		peakMB:  float64(peak) / 1e6,
	}, out, err
}

// cpuSeconds returns the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// heapSampler polls the bytes held by heap objects and keeps the maximum.
type heapSampler struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	peak  uint64
}

// heapSampleEvery is the polling period: well below the time between two
// garbage collections of a pass, so the sampled peak sits near the true
// one.
const heapSampleEvery = 2 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{})}
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > h.peak {
			h.peak = v
		}
	}
	read()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-h.stopc:
				read()
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return h
}

// stop ends the sampling and returns the peak; it returns after the
// sampling goroutine has exited.
func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	h.wg.Wait()
	return h.peak
}
